// Package isa defines the instruction representation shared by the trace
// generators (internal/trace) and the pipeline timing model (internal/cpu).
// It is a deliberately minimal RISC-style dynamic-instruction record — what
// a SimpleScalar functional simulator would hand its timing model — not an
// encodable ISA.
package isa

import "fmt"

// InstrBytes is the (fixed) instruction size in bytes; PCs advance by this.
const InstrBytes = 4

// RegCount is the architectural register count (integer + FP flattened).
const RegCount = 64

// NoReg marks an absent register operand.
const NoReg = 0xFF

// Class is the functional class of an instruction, which determines its
// execution latency and resource needs.
type Class uint8

// Instruction classes.
const (
	IntALU Class = iota
	IntMul
	FPAdd
	FPMul
	FPDiv
	Load
	Store
	Branch // conditional branch
	Jump   // unconditional direct jump
	Call   // direct call (pushes return address)
	Ret    // return (pops return address)
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "int"
	case IntMul:
		return "mul"
	case FPAdd:
		return "fadd"
	case FPMul:
		return "fmul"
	case FPDiv:
		return "fdiv"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Jump:
		return "jump"
	case Call:
		return "call"
	case Ret:
		return "ret"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// IsMem reports whether the class accesses data memory. Load and Store are
// adjacent, so one unsigned compare decides it without a branch.
func (c Class) IsMem() bool { return c-Load <= Store-Load }

// IsControl reports whether the class can redirect fetch.
func (c Class) IsControl() bool {
	return c == Branch || c == Jump || c == Call || c == Ret
}

// Instr is one dynamic instruction. The trace generator fills in the actual
// outcome (Taken, Target, MemAddr); the pipeline model decides what those
// cost.
type Instr struct {
	PC      uint64
	MemAddr uint64 // effective address for Load/Store
	Target  uint64 // actual target for control instructions
	Class   Class
	Taken   bool  // actual direction for Branch
	Src1    uint8 // source register or NoReg
	Src2    uint8 // source register or NoReg
	Dst     uint8 // destination register or NoReg
}

// Stream supplies dynamic instructions in program order. Next fills *ins
// and reports false at end of stream; implementations must not retain ins.
type Stream interface {
	Next(ins *Instr) bool
}

// ChunkSource supplies decoded instructions in program order, a chunk at a
// time: NextChunk fills up to len(buf) entries and returns how many it
// filled, 0 at end of stream. The simulator's lane executor consumes every
// stream through this interface; *ReplayCursor and the trace generator
// implement it natively, and Chunked adapts any other Stream.
type ChunkSource interface {
	NextChunk(buf []DecodedInstr) int
}

// Chunked returns s as a ChunkSource: s itself when it implements the
// interface, otherwise an adapter that decodes s one Next call per
// instruction. The adapter leaves DecodedInstr.Seq false, which is always
// correct (Seq only enables a same-fetch-block shortcut).
func Chunked(s Stream) ChunkSource {
	if cs, ok := s.(ChunkSource); ok {
		return cs
	}
	return &streamChunks{s: s}
}

type streamChunks struct {
	s   Stream
	ins Instr
}

func (c *streamChunks) NextChunk(buf []DecodedInstr) int {
	n := 0
	for n < len(buf) && c.s.Next(&c.ins) {
		in := &c.ins
		buf[n] = DecodedInstr{
			PC: in.PC, MemAddr: in.MemAddr, Target: in.Target,
			Cls: in.Class, Taken: in.Taken,
			S1: in.Src1, S2: in.Src2, Dst: in.Dst,
		}
		n++
	}
	return n
}

// SliceStream adapts a slice of instructions to the Stream interface
// (used by tests and microbenchmarks).
type SliceStream struct {
	Instrs []Instr
	pos    int
}

// Next implements Stream.
func (s *SliceStream) Next(ins *Instr) bool {
	if s.pos >= len(s.Instrs) {
		return false
	}
	*ins = s.Instrs[s.pos]
	s.pos++
	return true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }
