package isa_test

import (
	"bytes"
	"testing"

	"dricache/internal/isa"
	"dricache/internal/trace"
)

// unsimulatable holds one-instruction replays that are well formed section
// by section but decode to an instruction the simulator cannot index with.
// Each is the instruction count, then the meta, pc, reg and aux sections,
// each length-prefixed.
var unsimulatable = map[string][]byte{
	// Meta 0x0C: class 12 (NumClasses is 11), non-sequential PC delta 0.
	"class 12": {1, 1, 0x0C, 1, 0x00, 0, 0},
	// Meta 0x60: IntALU, sequential PC, register operands 100, NoReg, 1.
	"register 100": {1, 1, 0x60, 0, 3, 100, isa.NoReg, 1, 0},
	// Meta 0x60: IntALU, sequential PC, register operands 1, NoReg, 200.
	"register 200": {1, 1, 0x60, 0, 3, 1, isa.NoReg, 200, 0},
}

// TestUnmarshalReplayRejectsUnsimulatable: a class at or above NumClasses
// indexes past the pipeline's latency table and a register between
// RegCount and NoReg past its scoreboard, so decoding must refuse both.
func TestUnmarshalReplayRejectsUnsimulatable(t *testing.T) {
	for name, b := range unsimulatable {
		if _, err := isa.UnmarshalReplay(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same layout with a valid class and registers is accepted, so the
	// rejections above are about the values, not the framing.
	if _, err := isa.UnmarshalReplay([]byte{1, 1, 0x60, 0, 3, 1, isa.NoReg, 2, 0}); err != nil {
		t.Errorf("valid one-instruction replay rejected: %v", err)
	}
}

// FuzzUnmarshalReplay: for any input, decoding either fails or yields a
// replay that marshals back to the same bytes and whose full chunk walk
// yields exactly Len instructions, each with a class below NumClasses and
// registers below RegCount or equal to NoReg.
func FuzzUnmarshalReplay(f *testing.F) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	// A short recording: the fuzzer minimizes every new interesting input
	// before going on, and a kilobyte-sized seed spends most of a short
	// fuzzing budget there.
	rep, _ := isa.RecordStream(prog.Stream(48), 48)
	f.Add(rep.MarshalBinary())
	for _, b := range unsimulatable {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := isa.UnmarshalReplay(b)
		if err != nil {
			return
		}
		if got := rep.MarshalBinary(); !bytes.Equal(got, b) {
			t.Fatalf("round trip changed the encoding:\n  in  %x\n  out %x", b, got)
		}
		cur := rep.Cursor()
		var buf [64]isa.DecodedInstr
		var total uint64
		for n := cur.NextChunk(buf[:]); n > 0; n = cur.NextChunk(buf[:]) {
			for i, e := range buf[:n] {
				if int(e.Cls) >= isa.NumClasses {
					t.Fatalf("instruction %d: class %d", total+uint64(i), e.Cls)
				}
				for _, r := range [...]uint8{e.S1, e.S2, e.Dst} {
					if r >= isa.RegCount && r != isa.NoReg {
						t.Fatalf("instruction %d: register %d", total+uint64(i), r)
					}
				}
			}
			total += uint64(n)
		}
		if total != rep.Len() {
			t.Fatalf("walk decoded %d of %d instructions", total, rep.Len())
		}
	})
}
