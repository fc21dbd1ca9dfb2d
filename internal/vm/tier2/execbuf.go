package tier2

// execBuf owns one executable code mapping for a native trace. The
// platform-specific emitter (native_amd64.go) allocates and seals it;
// on platforms without an emitter it is never instantiated. The Trace
// keeps the pointer so the mapping outlives the head shim that jumps
// into it; a finalizer returns it to the kernel when the trace becomes
// unreachable — with its superblock, or for a trace shared through a
// snapshot, with the snapshot.
type execBuf struct {
	buf []byte
}
