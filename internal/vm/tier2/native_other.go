//go:build !(amd64 && linux)

package tier2

import "vxa/internal/vm/uop"

// Platforms without a native emitter have no tier 2: Compile always
// returns nil, and every superblock runs on the tier-1 dispatch loop.
const Available = false

func nativeCompile(us []uop.Uop, entry uint32, m *Machine, t *Trace) bool { return false }
