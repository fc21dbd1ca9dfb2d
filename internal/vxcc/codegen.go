package vxcc

import (
	"fmt"

	"vxa/internal/x86"
	"vxa/internal/x86/asm"
)

// The VXC calling convention ("vxcc ABI"):
//
//   - arguments are pushed right to left, 4 bytes each (byte arguments
//     are promoted), caller pops;
//   - the return value is in EAX;
//   - ALL registers are caller-clobbered. Generated code never keeps a
//     live value in a register across a call, so no callee-save traffic
//     is ever emitted. EBP is the frame pointer, ESP the stack pointer.
//
// Expression evaluation targets EAX, with ECX as the secondary operand
// register and EDX as transient scratch (CDQ/IDIV). Temporaries spill to
// the stack via PUSH/POP. EBX/ESI/EDI are used only by the builtin
// syscall/memcpy/memset sequences.

type global struct {
	sym  string
	typ  *Type
	decl *GlobalDecl
}

type function struct {
	name    string
	ret     *Type
	params  []Param
	file    string
	defined bool
}

type local struct {
	off int32 // ebp-relative
	typ *Type
}

type codegen struct {
	u     *asm.Unit
	funcs map[string]*function
	globs map[string]*global
	// globOrder holds globs in declaration order: layout iterates it,
	// never the map, so the same sources always yield the same ELF.
	globOrder []*global
	enums     map[string]int64

	// Per-function state.
	fn         *function
	scopes     []map[string]local
	frameSize  int32
	labelSeq   int
	breakLbl   []string
	contLbl    []string
	curFile    string
	strSeq     int
	inlineHint bool
}

func newCodegen() *codegen {
	return &codegen{
		u:     asm.New(),
		funcs: make(map[string]*function),
		globs: make(map[string]*global),
		enums: make(map[string]int64),
	}
}

type compileError struct {
	pos Pos
	msg string
}

func (e *compileError) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.msg) }

func cErrf(pos Pos, format string, args ...any) error {
	return &compileError{pos: pos, msg: fmt.Sprintf(format, args...)}
}

func (g *codegen) newLabel(hint string) string {
	g.labelSeq++
	return fmt.Sprintf(".L%s.%s.%d", g.fn.name, hint, g.labelSeq)
}

// declare registers all top-level symbols of a file (pass 1).
func (g *codegen) declare(f *File) error {
	for _, e := range f.Enums {
		for i, n := range e.Names {
			if _, dup := g.enums[n]; dup {
				return cErrf(e.Pos, "duplicate enum constant %q", n)
			}
			g.enums[n] = e.Vals[i]
		}
	}
	for _, gd := range f.Globals {
		if _, dup := g.globs[gd.Name]; dup {
			return cErrf(gd.Pos, "duplicate global %q", gd.Name)
		}
		if _, dup := g.enums[gd.Name]; dup {
			return cErrf(gd.Pos, "%q already an enum constant", gd.Name)
		}
		gl := &global{sym: gd.Name, typ: gd.Type, decl: gd}
		g.globs[gd.Name] = gl
		g.globOrder = append(g.globOrder, gl)
	}
	for _, fn := range f.Funcs {
		if prev, dup := g.funcs[fn.Name]; dup && prev.defined {
			return cErrf(fn.Pos, "duplicate function %q", fn.Name)
		}
		g.funcs[fn.Name] = &function{
			name: fn.Name, ret: fn.Ret, params: fn.Params,
			file: f.Name, defined: true,
		}
	}
	return nil
}

// emitGlobals lays out all global variables (pass 2a).
func (g *codegen) emitGlobals() error {
	for _, gl := range g.globOrder {
		gd := gl.decl
		t := gd.Type
		// Infer the length of byte name[] = "..." style declarations.
		if t.Kind == TArray && t.Len < 0 {
			switch {
			case gd.Str != nil:
				t.Len = len(gd.Str) + 1 // NUL-terminated
			case gd.Inits != nil:
				t.Len = len(gd.Inits)
			default:
				return cErrf(gd.Pos, "array %q needs a length or initializer", gd.Name)
			}
		}
		section := asm.Data
		if gd.Const {
			section = asm.ROData
		}
		switch {
		case gd.Str != nil:
			if t.Kind == TPtr {
				return cErrf(gd.Pos, "initialized pointer globals are not supported; use a byte array")
			}
			if t.Kind != TArray || t.Elem.Kind != TByte {
				return cErrf(gd.Pos, "string initializer requires a byte array")
			}
			if len(gd.Str)+1 > t.Size() {
				return cErrf(gd.Pos, "string longer than array %q", gd.Name)
			}
			buf := make([]byte, t.Size())
			copy(buf, gd.Str)
			g.u.DefData(gl.sym, section, buf)
		case gd.Inits != nil:
			if t.Kind != TArray {
				return cErrf(gd.Pos, "brace initializer requires an array")
			}
			if len(gd.Inits) > t.Len {
				return cErrf(gd.Pos, "too many initializers for %q", gd.Name)
			}
			esz := t.Elem.Size()
			buf := make([]byte, t.Size())
			for i, e := range gd.Inits {
				v, err := g.constVal(e)
				if err != nil {
					return err
				}
				switch esz {
				case 1:
					buf[i] = byte(v)
				case 4:
					off := i * 4
					buf[off] = byte(v)
					buf[off+1] = byte(v >> 8)
					buf[off+2] = byte(v >> 16)
					buf[off+3] = byte(v >> 24)
				}
			}
			g.u.DefData(gl.sym, section, buf)
		case gd.Init != nil:
			v, err := g.constVal(gd.Init)
			if err != nil {
				return err
			}
			if !t.IsScalar() {
				return cErrf(gd.Pos, "scalar initializer on non-scalar %q", gd.Name)
			}
			var buf []byte
			if t.Size() == 1 {
				buf = []byte{byte(v)}
			} else {
				buf = []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
			}
			g.u.DefData(gl.sym, section, buf)
		default:
			if gd.Const {
				return cErrf(gd.Pos, "const global %q needs an initializer", gd.Name)
			}
			g.u.DefBSS(gl.sym, uint32(t.Size()), 4)
		}
	}
	return nil
}

// constVal folds a constant initializer, with enum constants visible.
func (g *codegen) constVal(e Expr) (int64, error) {
	switch x := e.(type) {
	case *Ident:
		if v, ok := g.enums[x.Name]; ok {
			return v, nil
		}
		return 0, cErrf(x.Pos, "%q is not a constant", x.Name)
	case *Unary:
		v, err := g.constVal(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case tMinus:
			return int64(int32(-v)), nil
		case tTilde:
			return int64(^uint32(v)), nil
		case tBang:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *Binary:
		a, err := g.constVal(x.X)
		if err != nil {
			return 0, err
		}
		b, err := g.constVal(x.Y)
		if err != nil {
			return 0, err
		}
		return foldBinary(x, a, b)
	case *IntLit:
		return x.Val, nil
	case *SizeofType:
		return int64(x.Type.Size()), nil
	case *Cast:
		v, err := g.constVal(x.X)
		if err != nil {
			return 0, err
		}
		if x.Type.Kind == TByte {
			return v & 0xFF, nil
		}
		return v, nil
	}
	return 0, cErrf(e.exprPos(), "not a constant expression")
}

func foldBinary(x *Binary, a, b int64) (int64, error) {
	au, bu := uint32(a), uint32(b)
	switch x.Op {
	case tPlus:
		return int64(au + bu), nil
	case tMinus:
		return int64(int32(au - bu)), nil
	case tStar:
		return int64(int32(au * bu)), nil
	case tSlash:
		if bu == 0 {
			return 0, cErrf(x.Pos, "constant division by zero")
		}
		return int64(int32(a) / int32(b)), nil
	case tPercent:
		if bu == 0 {
			return 0, cErrf(x.Pos, "constant division by zero")
		}
		return int64(int32(a) % int32(b)), nil
	case tShl:
		return int64(au << (bu & 31)), nil
	case tShr:
		return int64(au >> (bu & 31)), nil
	case tAmp:
		return int64(au & bu), nil
	case tPipe:
		return int64(au | bu), nil
	case tCaret:
		return int64(au ^ bu), nil
	case tLt:
		return b2i(int32(a) < int32(b)), nil
	case tGt:
		return b2i(int32(a) > int32(b)), nil
	case tLe:
		return b2i(int32(a) <= int32(b)), nil
	case tGe:
		return b2i(int32(a) >= int32(b)), nil
	case tEq:
		return b2i(au == bu), nil
	case tNe:
		return b2i(au != bu), nil
	}
	return 0, cErrf(x.Pos, "not a constant operator")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// frameBytes pre-computes the stack frame a function body needs: every
// local declaration gets its own slot (no reuse across scopes; decoders
// are not frame-size critical).
func frameBytes(s Stmt) int32 {
	switch x := s.(type) {
	case *Block:
		var n int32
		for _, st := range x.Stmts {
			n += frameBytes(st)
		}
		return n
	case *DeclStmt:
		return int32((x.Type.Size() + 3) &^ 3)
	case *If:
		n := frameBytes(x.Then)
		if x.Else != nil {
			n += frameBytes(x.Else)
		}
		return n
	case *While:
		return frameBytes(x.Body)
	case *DoWhile:
		return frameBytes(x.Body)
	case *For:
		var n int32
		if x.Init != nil {
			n += frameBytes(x.Init)
		}
		return n + frameBytes(x.Body)
	}
	return 0
}

// emitFunc generates one function (pass 2b).
func (g *codegen) emitFunc(fd *FuncDecl, file string) error {
	g.fn = g.funcs[fd.Name]
	g.curFile = file
	g.scopes = []map[string]local{{}}
	g.frameSize = 0
	g.breakLbl, g.contLbl = nil, nil

	// Parameters live above the return address.
	off := int32(8)
	for _, p := range fd.Params {
		if _, dup := g.scopes[0][p.Name]; dup {
			return cErrf(fd.Pos, "duplicate parameter %q", p.Name)
		}
		g.scopes[0][p.Name] = local{off: off, typ: p.Type}
		off += 4
	}

	frame := frameBytes(fd.Body)
	g.u.Label(fd.Name)
	g.u.Op1(x86.PUSH, x86.R(x86.EBP))
	g.u.Op2(x86.MOV, x86.R(x86.EBP), x86.R(x86.ESP))
	if frame > 0 {
		g.u.Op2(x86.SUB, x86.R(x86.ESP), x86.I(frame))
	}

	if err := g.genBlock(fd.Body); err != nil {
		return err
	}

	// Implicit return (value undefined for non-void, as in old C).
	g.u.Label(".Lret." + fd.Name)
	g.u.Op2(x86.MOV, x86.R(x86.ESP), x86.R(x86.EBP))
	g.u.Op1(x86.POP, x86.R(x86.EBP))
	g.u.Op0(x86.RET)
	return nil
}

func (g *codegen) pushScope() { g.scopes = append(g.scopes, map[string]local{}) }
func (g *codegen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *codegen) lookupLocal(name string) (local, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if l, ok := g.scopes[i][name]; ok {
			return l, true
		}
	}
	return local{}, false
}

func (g *codegen) genBlock(b *Block) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) genStmt(s Stmt) error {
	switch x := s.(type) {
	case *Block:
		return g.genBlock(x)

	case *ExprStmt:
		_, err := g.genExpr(x.X)
		return err

	case *DeclStmt:
		sz := int32((x.Type.Size() + 3) &^ 3)
		g.frameSize += sz
		l := local{off: -g.frameSize, typ: x.Type}
		scope := g.scopes[len(g.scopes)-1]
		if _, dup := scope[x.Name]; dup {
			return cErrf(x.Pos, "duplicate local %q", x.Name)
		}
		scope[x.Name] = l
		if x.Init != nil {
			if !x.Type.IsScalar() {
				return cErrf(x.Pos, "array locals cannot be initialized")
			}
			t, err := g.genExpr(x.Init)
			if err != nil {
				return err
			}
			if err := g.checkAssignable(x.Pos, x.Type, t); err != nil {
				return err
			}
			g.storeToEBP(l.off, x.Type)
		}
		return nil

	case *If:
		elseL := g.newLabel("else")
		endL := g.newLabel("endif")
		if err := g.genCondJump(x.C, elseL, false); err != nil {
			return err
		}
		if err := g.genStmt(x.Then); err != nil {
			return err
		}
		if x.Else != nil {
			g.u.Jmp(endL)
		}
		g.u.Label(elseL)
		if x.Else != nil {
			if err := g.genStmt(x.Else); err != nil {
				return err
			}
			g.u.Label(endL)
		}
		return nil

	case *While:
		top := g.newLabel("while")
		end := g.newLabel("endwhile")
		g.u.Label(top)
		if err := g.genCondJump(x.C, end, false); err != nil {
			return err
		}
		g.breakLbl = append(g.breakLbl, end)
		g.contLbl = append(g.contLbl, top)
		err := g.genStmt(x.Body)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		if err != nil {
			return err
		}
		g.u.Jmp(top)
		g.u.Label(end)
		return nil

	case *DoWhile:
		top := g.newLabel("do")
		cont := g.newLabel("docond")
		end := g.newLabel("enddo")
		g.u.Label(top)
		g.breakLbl = append(g.breakLbl, end)
		g.contLbl = append(g.contLbl, cont)
		err := g.genStmt(x.Body)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		if err != nil {
			return err
		}
		g.u.Label(cont)
		if err := g.genCondJump(x.C, top, true); err != nil {
			return err
		}
		g.u.Label(end)
		return nil

	case *For:
		g.pushScope() // the init declaration scopes to the loop
		defer g.popScope()
		if x.Init != nil {
			if err := g.genStmt(x.Init); err != nil {
				return err
			}
		}
		top := g.newLabel("for")
		cont := g.newLabel("forpost")
		end := g.newLabel("endfor")
		g.u.Label(top)
		if x.C != nil {
			if err := g.genCondJump(x.C, end, false); err != nil {
				return err
			}
		}
		g.breakLbl = append(g.breakLbl, end)
		g.contLbl = append(g.contLbl, cont)
		err := g.genStmt(x.Body)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		if err != nil {
			return err
		}
		g.u.Label(cont)
		if x.Post != nil {
			if _, err := g.genExpr(x.Post); err != nil {
				return err
			}
		}
		g.u.Jmp(top)
		g.u.Label(end)
		return nil

	case *Return:
		if x.X != nil {
			if g.fn.ret.Kind == TVoid {
				return cErrf(x.Pos, "void function returns a value")
			}
			t, err := g.genExpr(x.X)
			if err != nil {
				return err
			}
			if err := g.checkAssignable(x.Pos, g.fn.ret, t); err != nil {
				return err
			}
		} else if g.fn.ret.Kind != TVoid {
			return cErrf(x.Pos, "missing return value")
		}
		g.u.Jmp(".Lret." + g.fn.name)
		return nil

	case *Break:
		if len(g.breakLbl) == 0 {
			return cErrf(x.Pos, "break outside a loop")
		}
		g.u.Jmp(g.breakLbl[len(g.breakLbl)-1])
		return nil

	case *Continue:
		if len(g.contLbl) == 0 {
			return cErrf(x.Pos, "continue outside a loop")
		}
		g.u.Jmp(g.contLbl[len(g.contLbl)-1])
		return nil
	}
	return cErrf(s.stmtPos(), "unhandled statement")
}

// genCondJump evaluates a condition and jumps to target when the
// condition's truth equals jumpIfTrue.
func (g *codegen) genCondJump(c Expr, target string, jumpIfTrue bool) error {
	t, err := g.genExpr(c)
	if err != nil {
		return err
	}
	if !t.IsScalar() {
		return cErrf(c.exprPos(), "condition is not scalar")
	}
	g.u.Op2(x86.TEST, x86.R(x86.EAX), x86.R(x86.EAX))
	if jumpIfTrue {
		g.u.Jcc(x86.CCNE, target)
	} else {
		g.u.Jcc(x86.CCE, target)
	}
	return nil
}

// storeToEBP stores EAX into an EBP-relative slot with the type's width.
func (g *codegen) storeToEBP(off int32, t *Type) {
	if t.Size() == 1 {
		g.u.Op2(x86.MOV, x86.M8(x86.EBP, off), x86.R8(x86.EAX))
	} else {
		g.u.Op2(x86.MOV, x86.M(x86.EBP, off), x86.R(x86.EAX))
	}
}

// checkAssignable enforces VXC's (permissive, old-C flavored) assignment
// compatibility: scalars interconvert; pointers convert to/from any
// pointer and integer explicitly, but implicit cross-pointer assignment
// of unrelated element types is allowed only via void*-less casts —
// since VXC has no void*, we allow byte* <-> T* implicitly, matching how
// the decoder sources use byte buffers.
func (g *codegen) checkAssignable(pos Pos, dst, src *Type) error {
	if dst.IsScalar() && src.IsScalar() {
		if dst.Kind == TPtr && src.Kind == TPtr {
			if dst.Elem.Equal(src.Elem) || dst.Elem.Kind == TByte || src.Elem.Kind == TByte {
				return nil
			}
			return cErrf(pos, "incompatible pointer assignment (%s = %s); cast explicitly", dst, src)
		}
		return nil
	}
	return cErrf(pos, "cannot assign %s to %s", src, dst)
}
