// Replay is a compact record-once/replay-many instruction stream: a
// struct-of-arrays encoding of a dynamic instruction trace that a
// zero-allocation cursor can decode back, instruction for instruction,
// bit-identical to the stream that was recorded.
//
// The encoding exploits the shape of real traces:
//
//   - one meta byte per instruction packs the class, the branch direction,
//     a "PC is sequential" flag, and a "has register operands" flag;
//   - PCs are stored as zigzag-varint deltas from the fall-through address,
//     so straight-line code costs zero PC bytes and loop back-edges cost
//     one or two;
//   - register operands (src1, src2, dst) cost three bytes, elided entirely
//     for operand-free control transfers;
//   - effective addresses are zigzag-varint deltas from the previous data
//     address (streaming access patterns compress to a byte or two), and
//     control targets are deltas from their own PC.
//
// The product is ~5 bytes per instruction for the synthetic SPEC95 streams
// — versus 40 bytes for []Instr — decoded at a fraction of the cost of
// regenerating the stream through the trace generator's PRNG machinery.
package isa

import (
	"context"
	"encoding/binary"
)

// Meta-byte layout: class in the low four bits, flags above.
const (
	metaClassMask uint8 = 0x0F
	metaTaken     uint8 = 1 << 4 // Instr.Taken
	metaSeqPC     uint8 = 1 << 5 // PC == previous PC + InstrBytes (no PC bytes)
	metaRegs      uint8 = 1 << 6 // three register bytes follow in the reg stream
)

// pcInit is the decoder's PC state before the first instruction, chosen so
// the first fall-through prediction is address zero and the first PC is
// encoded as a plain delta from zero.
const pcInit = ^uint64(InstrBytes - 1) // == -InstrBytes

// Replay is an immutable recorded instruction stream. Build one with a
// Recorder; iterate it with Cursor. A Replay is safe for concurrent use by
// any number of cursors.
type Replay struct {
	n    uint64 // instruction count
	meta []uint8
	pcs  []byte // zigzag-varint PC deltas for non-sequential instructions
	regs []byte // src1, src2, dst triples for instructions with operands
	aux  []byte // zigzag-varint mem-addr deltas (mem) and target deltas (control)
}

// Len returns the number of recorded instructions.
func (r *Replay) Len() uint64 { return r.n }

// Bytes returns the memory footprint of the encoded arrays.
func (r *Replay) Bytes() int {
	return len(r.meta) + len(r.pcs) + len(r.regs) + len(r.aux)
}

// Cursor returns a decoder positioned at the first instruction.
func (r *Replay) Cursor() ReplayCursor {
	return ReplayCursor{r: r, prevPC: pcInit}
}

// ReplayCursor decodes a Replay in program order. It implements Stream and
// performs no allocation per instruction. The zero value is not usable;
// obtain one from Replay.Cursor. Each cursor is independent; a Replay may
// be traversed by any number of concurrent cursors, but a single cursor is
// not goroutine-safe.
type ReplayCursor struct {
	r       *Replay
	i       uint64
	pcPos   int
	regPos  int
	auxPos  int
	prevPC  uint64
	prevMem uint64
	seq     bool
}

// Reset rewinds the cursor to the first instruction.
func (c *ReplayCursor) Reset() { *c = c.r.Cursor() }

// Len returns the total number of instructions in the underlying Replay.
func (c *ReplayCursor) Len() uint64 { return c.r.n }

// Replay returns the underlying recorded stream.
func (c *ReplayCursor) Replay() *Replay { return c.r }

// SeqPC reports whether the instruction most recently decoded by
// NextValues (or Next) was PC-sequential: its PC is the previous
// instruction's PC plus InstrBytes. The delta encoding carries this fact in
// the meta byte, so the signal is free — the simulator's lane combines it
// with the PC's offset within a fetch block to detect same-block runs
// without recomputing and comparing block addresses. False before the first
// instruction of the stream.
func (c *ReplayCursor) SeqPC() bool { return c.seq }

// Next implements Stream.
func (c *ReplayCursor) Next(ins *Instr) bool {
	pc, memAddr, target, cls, taken, s1, s2, dst, ok := c.NextValues()
	if !ok {
		return false
	}
	*ins = Instr{
		PC:      pc,
		MemAddr: memAddr,
		Target:  target,
		Class:   cls,
		Taken:   taken,
		Src1:    s1,
		Src2:    s2,
		Dst:     dst,
	}
	return true
}

// NextValues is Next exploded into discrete return values. Under the Go
// register ABI all nine results travel in registers, so a caller
// consumes a decoded instruction without a 40-byte Instr
// round-tripping through the stack per instruction. ok is false at end of
// stream (all other results are then zero).
func (c *ReplayCursor) NextValues() (pc, memAddr, target uint64, cls Class, taken bool, s1, s2, dst uint8, ok bool) {
	if c.i >= c.r.n {
		return 0, 0, 0, 0, false, 0, 0, 0, false
	}
	m := c.r.meta[c.i]
	pc = c.prevPC + InstrBytes
	c.seq = m&metaSeqPC != 0
	if !c.seq {
		d, n := uvarint(c.r.pcs, c.pcPos)
		c.pcPos = n
		pc += unzigzag(d)
	}
	cls = Class(m & metaClassMask)

	s1, s2, dst = NoReg, NoReg, NoReg
	if m&metaRegs != 0 {
		s1 = c.r.regs[c.regPos]
		s2 = c.r.regs[c.regPos+1]
		dst = c.r.regs[c.regPos+2]
		c.regPos += 3
	}

	if cls.IsMem() {
		d, n := uvarint(c.r.aux, c.auxPos)
		c.auxPos = n
		memAddr = c.prevMem + unzigzag(d)
		c.prevMem = memAddr
	} else if cls.IsControl() {
		d, n := uvarint(c.r.aux, c.auxPos)
		c.auxPos = n
		target = pc + unzigzag(d)
	}

	c.prevPC = pc
	c.i++
	return pc, memAddr, target, cls, m&metaTaken != 0, s1, s2, dst, true
}

// DecodedInstr is one replay-decoded instruction in flat struct-of-fields
// form: the NextValues tuple plus the SeqPC flag, laid out so a chunk of
// them is a contiguous, branch-free read for the simulator's hot loop.
type DecodedInstr struct {
	PC      uint64
	MemAddr uint64
	Target  uint64
	Cls     Class
	Taken   bool
	// Seq is the SeqPC signal for this instruction (PC == previous PC +
	// InstrBytes), carried per-instruction so chunked consumers keep the
	// same-block fast path NextValues callers get from SeqPC.
	Seq bool
	S1  uint8
	S2  uint8
	Dst uint8
}

// NextChunk decodes up to len(buf) instructions into buf and returns the
// number decoded (0 at end of stream). It advances the cursor exactly as
// len(buf) NextValues calls would — SeqPC afterwards reports the last
// decoded instruction — but amortizes the decoder state across the chunk:
// cursor fields live in registers for the whole run and the common one-byte
// varint deltas skip the loop in uvarint.
func (c *ReplayCursor) NextChunk(buf []DecodedInstr) int {
	r := c.r
	if c.i >= r.n {
		return 0
	}
	var (
		i       = c.i
		pcPos   = c.pcPos
		regPos  = c.regPos
		auxPos  = c.auxPos
		prevPC  = c.prevPC
		prevMem = c.prevMem
		seq     = c.seq
		meta    = r.meta
		pcs     = r.pcs
		regs    = r.regs
		aux     = r.aux
	)
	n := 0
	for n < len(buf) && i < r.n {
		m := meta[i]
		pc := prevPC + InstrBytes
		seq = m&metaSeqPC != 0
		if !seq {
			var d uint64
			if x := pcs[pcPos]; x < 0x80 {
				d = uint64(x)
				pcPos++
			} else {
				d, pcPos = uvarint(pcs, pcPos)
			}
			pc += unzigzag(d)
		}
		cls := Class(m & metaClassMask)
		e := &buf[n]
		e.PC = pc
		e.Cls = cls
		e.Taken = m&metaTaken != 0
		e.Seq = seq
		if m&metaRegs != 0 {
			e.S1 = regs[regPos]
			e.S2 = regs[regPos+1]
			e.Dst = regs[regPos+2]
			regPos += 3
		} else {
			e.S1, e.S2, e.Dst = NoReg, NoReg, NoReg
		}
		e.MemAddr, e.Target = 0, 0
		if cls.IsMem() {
			var d uint64
			if x := aux[auxPos]; x < 0x80 {
				d = uint64(x)
				auxPos++
			} else {
				d, auxPos = uvarint(aux, auxPos)
			}
			prevMem += unzigzag(d)
			e.MemAddr = prevMem
		} else if cls.IsControl() {
			var d uint64
			if x := aux[auxPos]; x < 0x80 {
				d = uint64(x)
				auxPos++
			} else {
				d, auxPos = uvarint(aux, auxPos)
			}
			e.Target = pc + unzigzag(d)
		}
		prevPC = pc
		i++
		n++
	}
	c.i = i
	c.pcPos = pcPos
	c.regPos = regPos
	c.auxPos = auxPos
	c.prevPC = prevPC
	c.prevMem = prevMem
	c.seq = seq
	return n
}

// Recorder builds a Replay by appending instructions in program order.
// The zero value is ready to use; call Finish once to obtain the Replay.
type Recorder struct {
	rep     Replay
	prevPC  uint64
	prevMem uint64
	started bool
	inexact bool
}

// NewRecorder returns a recorder pre-sized for about n instructions.
func NewRecorder(n uint64) *Recorder {
	r := &Recorder{}
	if n > 0 {
		r.rep.meta = make([]uint8, 0, n)
		r.rep.pcs = make([]byte, 0, n/2)
		r.rep.regs = make([]byte, 0, 3*n)
		r.rep.aux = make([]byte, 0, 2*n)
	}
	return r
}

// Add appends one instruction.
func (r *Recorder) Add(ins *Instr) {
	r.add(&DecodedInstr{
		PC: ins.PC, MemAddr: ins.MemAddr, Target: ins.Target,
		Cls: ins.Class, Taken: ins.Taken,
		S1: ins.Src1, S2: ins.Src2, Dst: ins.Dst,
	})
}

// add appends one decoded instruction; its Seq field is ignored (the
// recorder derives sequentiality from the PCs itself).
func (r *Recorder) add(ins *DecodedInstr) {
	if !r.started {
		r.started = true
		r.prevPC = pcInit
	}
	if uint8(ins.Cls) > metaClassMask {
		r.inexact = true
	}
	m := uint8(ins.Cls) & metaClassMask
	if ins.Taken {
		m |= metaTaken
	}
	seq := r.prevPC + InstrBytes
	if ins.PC == seq {
		m |= metaSeqPC
	} else {
		r.rep.pcs = appendZigzag(r.rep.pcs, ins.PC-seq)
	}
	if ins.S1 != NoReg || ins.S2 != NoReg || ins.Dst != NoReg {
		m |= metaRegs
		r.rep.regs = append(r.rep.regs, ins.S1, ins.S2, ins.Dst)
	}
	switch {
	case ins.Cls.IsMem():
		r.rep.aux = appendZigzag(r.rep.aux, ins.MemAddr-r.prevMem)
		r.prevMem = ins.MemAddr
		if ins.Target != 0 {
			r.inexact = true
		}
	case ins.Cls.IsControl():
		r.rep.aux = appendZigzag(r.rep.aux, ins.Target-ins.PC)
		if ins.MemAddr != 0 {
			r.inexact = true
		}
	default:
		if ins.MemAddr != 0 || ins.Target != 0 {
			r.inexact = true
		}
	}
	r.rep.meta = append(r.rep.meta, m)
	r.prevPC = ins.PC
	r.rep.n++
}

// Exact reports whether every recorded instruction round-trips
// bit-identically. It is false only for instructions outside the encoding's
// envelope (a class above 15, or an aux field on a class that cannot carry
// it) — which no trace generator emits.
func (r *Recorder) Exact() bool { return !r.inexact }

// Finish seals the recording and returns the Replay. The arrays are copied
// to exact size so a long-lived store accounts (and retains) no growth
// slack. The recorder must not be used afterwards.
func (r *Recorder) Finish() *Replay {
	rep := r.rep
	rep.meta = clip(rep.meta)
	rep.pcs = clip(rep.pcs)
	rep.regs = clip(rep.regs)
	rep.aux = clip(rep.aux)
	r.rep = Replay{}
	return &rep
}

// RecordStream drains s through a recorder sized for sizeHint instructions
// and returns the sealed Replay with its exactness. The stream is read
// through Chunked, so a generator records without an Instr round trip per
// instruction, but one instruction per call: generating a whole 256-entry
// chunk before encoding it measured about 10% slower than interleaving the
// two.
func RecordStream(s Stream, sizeHint uint64) (*Replay, bool) {
	rep, exact, _ := RecordStreamCtx(context.Background(), s, sizeHint)
	return rep, exact
}

// recordCheck is how many instructions RecordStreamCtx records between
// context checks: tens of microseconds of recording, so a cancelled
// recording stops promptly without a check per instruction.
const recordCheck = 4096

// RecordStreamCtx is RecordStream under a context, checked every
// recordCheck instructions. On cancellation it abandons the recording and
// returns a nil Replay with the context's cause; a non-cancellable context
// costs nothing.
func RecordStreamCtx(ctx context.Context, s Stream, sizeHint uint64) (*Replay, bool, error) {
	r := NewRecorder(sizeHint)
	src := Chunked(s)
	done := ctx.Done()
	var buf [1]DecodedInstr
	for i := uint(1); src.NextChunk(buf[:]) > 0; i++ {
		r.add(&buf[0])
		if done != nil && i%recordCheck == 0 && ctx.Err() != nil {
			return nil, false, context.Cause(ctx)
		}
	}
	exact := r.Exact()
	return r.Finish(), exact, nil
}

// clip returns b in a buffer of exactly len(b) bytes.
func clip(b []byte) []byte {
	if cap(b) == len(b) {
		return b
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// appendZigzag appends d (interpreted as a signed two's-complement delta)
// as a zigzag varint.
func appendZigzag(b []byte, d uint64) []byte {
	sd := int64(d)
	return binary.AppendUvarint(b, uint64((sd<<1)^(sd>>63)))
}

// unzigzag decodes a zigzag value back to its signed delta (as the uint64
// two's-complement the PC/address arithmetic wraps with).
func unzigzag(u uint64) uint64 {
	return uint64(int64(u>>1) ^ -int64(u&1))
}

// uvarint decodes an unsigned varint from b at pos, returning the value and
// the position past it. It is binary.Uvarint without the slice header
// traffic, inlined into the cursor's hot path.
func uvarint(b []byte, pos int) (uint64, int) {
	var v uint64
	var shift uint
	for {
		x := b[pos]
		pos++
		if x < 0x80 {
			return v | uint64(x)<<shift, pos
		}
		v |= uint64(x&0x7F) << shift
		shift += 7
	}
}
