// Binary serialization for Replay: the persistence layer stores recordings
// on disk (content-addressed by the trace store), so a restarted process
// replays yesterday's streams instead of regenerating them. The format is
// the in-memory struct-of-arrays laid out verbatim — a varint instruction
// count followed by the four length-prefixed sections — which keeps
// MarshalBinary allocation-bounded and UnmarshalReplay a few copies.
package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var errReplayEncoding = errors.New("isa: invalid replay encoding")

// MarshalBinary encodes r for storage. The encoding is deterministic:
// identical recordings marshal to identical bytes.
func (r *Replay) MarshalBinary() []byte {
	size := binary.MaxVarintLen64 * 5
	size += len(r.meta) + len(r.pcs) + len(r.regs) + len(r.aux)
	b := make([]byte, 0, size)
	b = binary.AppendUvarint(b, r.n)
	for _, sec := range [][]byte{r.meta, r.pcs, r.regs, r.aux} {
		b = binary.AppendUvarint(b, uint64(len(sec)))
		b = append(b, sec...)
	}
	return b
}

// UnmarshalReplay decodes a MarshalBinary encoding and validates it: every
// section length must be consistent and minimally encoded, a full position
// walk must stay in bounds, and every decoded class and register must be
// one the simulator can index with. A Replay accepted here can never index
// out of range under a cursor or in the pipeline, and marshals back to b.
// (The persistence envelope's checksum already rejects bit rot; this
// guards against format drift and hand-crafted files.)
func UnmarshalReplay(b []byte) (*Replay, error) {
	fail := func(what string) (*Replay, error) {
		return nil, fmt.Errorf("%w: %s", errReplayEncoding, what)
	}
	n, sz := canonicalUvarint(b)
	if sz <= 0 {
		return fail("bad instruction count")
	}
	b = b[sz:]
	var secs [4][]byte
	for i := range secs {
		l, sz := canonicalUvarint(b)
		if sz <= 0 || l > uint64(len(b)-sz) {
			return fail(fmt.Sprintf("bad section %d length", i))
		}
		secs[i] = b[sz : sz+int(l) : sz+int(l)]
		b = b[sz+int(l):]
	}
	if len(b) != 0 {
		return fail("trailing bytes")
	}
	rep := &Replay{n: n, meta: secs[0], pcs: secs[1], regs: secs[2], aux: secs[3]}
	if uint64(len(rep.meta)) != n {
		return fail("meta length does not match instruction count")
	}
	if err := rep.validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// canonicalUvarint is binary.Uvarint that also rejects (sz 0) a varint
// longer than MarshalBinary would write for its value.
func canonicalUvarint(b []byte) (uint64, int) {
	v, sz := binary.Uvarint(b)
	var buf [binary.MaxVarintLen64]byte
	if sz > 0 && sz != binary.PutUvarint(buf[:], v) {
		return 0, 0
	}
	return v, sz
}

// validate walks every meta byte, advancing the section positions exactly
// as a cursor would, checks each class and register operand, and verifies
// each section is consumed completely.
func (r *Replay) validate() error {
	pcPos, regPos, auxPos := 0, 0, 0
	for i := uint64(0); i < r.n; i++ {
		m := r.meta[i]
		cls := Class(m & metaClassMask)
		if int(cls) >= NumClasses {
			return fmt.Errorf("%w: class %d at instruction %d", errReplayEncoding, cls, i)
		}
		if m&metaSeqPC == 0 {
			if pcPos = skipUvarint(r.pcs, pcPos); pcPos < 0 {
				return fmt.Errorf("%w: pc section truncated at instruction %d", errReplayEncoding, i)
			}
		}
		if m&metaRegs != 0 {
			if regPos+3 > len(r.regs) {
				return fmt.Errorf("%w: reg section truncated at instruction %d", errReplayEncoding, i)
			}
			for _, reg := range r.regs[regPos : regPos+3] {
				if reg >= RegCount && reg != NoReg {
					return fmt.Errorf("%w: register %d at instruction %d", errReplayEncoding, reg, i)
				}
			}
			regPos += 3
		}
		if cls.IsMem() || cls.IsControl() {
			if auxPos = skipUvarint(r.aux, auxPos); auxPos < 0 {
				return fmt.Errorf("%w: aux section truncated at instruction %d", errReplayEncoding, i)
			}
		}
	}
	if pcPos != len(r.pcs) || regPos != len(r.regs) || auxPos != len(r.aux) {
		return fmt.Errorf("%w: unconsumed section bytes", errReplayEncoding)
	}
	return nil
}

// skipUvarint returns the position past the varint at pos, or -1 if it
// runs off the end of b.
func skipUvarint(b []byte, pos int) int {
	for pos < len(b) {
		if b[pos] < 0x80 {
			return pos + 1
		}
		pos++
	}
	return -1
}
