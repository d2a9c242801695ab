package cpu

import (
	"testing"

	"dricache/internal/isa"
	"dricache/internal/trace"
)

// BenchmarkPipelineSynthetic measures raw pipeline throughput on a
// pre-generated stream (no trace-generation cost).
func BenchmarkPipelineSynthetic(b *testing.B) {
	prog, err := trace.ByName("mgrid")
	if err != nil {
		b.Fatal(err)
	}
	const n = 100_000
	instrs := make([]isa.Instr, 0, n)
	s := prog.Stream(n)
	var ins isa.Instr
	for s.Next(&ins) {
		instrs = append(instrs, ins)
	}
	stream := &isa.SliceStream{Instrs: instrs}
	h := perfect()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Reset()
		h.Reset()
		New(DefaultConfig(), h, h, nil, h).Run(stream)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
