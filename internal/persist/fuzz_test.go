package persist

import (
	"bytes"
	"testing"
)

// FuzzDecodeEnvelope feeds arbitrary bytes to the reader of files read back
// from disk: decodeEnvelope must reject them with an error or return a
// (kind, key, payload) that encodeEnvelope re-encodes to exactly the same
// bytes, and it must never panic. The seed corpus is a valid envelope and
// every truncation of it.
func FuzzDecodeEnvelope(f *testing.F) {
	valid := encodeEnvelope(KindResult, "0123456789abcdef", []byte(`{"benchmark":"gcc"}`))
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(encodeEnvelope(KindTrace, "", nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, key, payload, err := decodeEnvelope(b)
		if err != nil {
			return
		}
		if again := encodeEnvelope(kind, key, payload); !bytes.Equal(again, b) {
			t.Fatalf("decoded (%d, %q, %d-byte payload) re-encodes to different bytes:\n  in  %x\n  out %x",
				kind, key, len(payload), b, again)
		}
	})
}
