package ipu

import (
	"testing"

	"repro/internal/pixelfly"
)

var sinkReport ExecReport

// BenchmarkCompile prices one served model the way its programs are
// priced at set-up: for each batch bucket 1, 2, 4, …, 64 it builds the
// structured layer's workload at N=1024 and runs Compile and Simulate.
// Run with -benchmem; one op is all seven buckets.
func BenchmarkCompile(b *testing.B) {
	cfg := GC200()
	const n = 1024
	pcfg := pixelfly.Config{N: n, BlockSize: 64, ButterflySize: 16, LowRank: 32}
	for _, fam := range []struct {
		name  string
		build func(batch int) *Workload
	}{
		{"linear", func(batch int) *Workload { return BuildLinear(cfg, n, batch) }},
		{"pixelfly", func(batch int) *Workload { return BuildPixelflyMM(cfg, pcfg, batch) }},
		{"butterfly", func(batch int) *Workload { return BuildButterflyMM(cfg, n, batch) }},
		{"fastfood", func(batch int) *Workload { return BuildFastfood(cfg, n, batch) }},
		{"circulant", func(batch int) *Workload { return BuildCirculant(cfg, n, batch) }},
	} {
		b.Run(fam.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for batch := 1; batch <= 64; batch *= 2 {
					c, err := Compile(fam.build(batch).Graph)
					if err != nil {
						b.Fatal(err)
					}
					sinkReport = Simulate(c)
				}
			}
		})
	}
}
