package sample

import (
	"testing"

	"acb/internal/bpu"
	"acb/internal/config"
	"acb/internal/isa"
	"acb/internal/mem"
)

// sampledLong is the benchmark's sampled-long mix (bench/sampled.go).
var sampledLong = []string{"mcf", "gcc", "leela", "soplex", "h264ref", "lammps", "xz", "omnetpp"}

// stageInstrs is how far the stage benchmarks run each program.
const stageInstrs = 2_000_000

// BenchmarkEmulateStage prices the fast-forward's emulate stage on its
// own: each sampled-long program stepped for stageInstrs instructions
// through RunEvents in batches of batchEvents, as emulate does, with the
// events dropped. Run it alone, with the warm-stage benchmark:
//
//	go test ./internal/sample/ -run '^$' -bench Stage -benchtime 3x -cpu 1
func BenchmarkEmulateStage(b *testing.B) {
	for _, name := range sampledLong {
		b.Run(name, func(b *testing.B) {
			prog, image := buildWorkload(b, name)
			events := make([]isa.Event, 0, batchEvents)
			var instrs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arch := isa.NewArchState(image.CloneCOW())
				for pos := int64(0); pos < stageInstrs; {
					var steps int64
					var halted bool
					events, steps, halted = arch.RunEvents(prog, stageInstrs-pos, events[:0])
					pos += steps
					instrs += steps
					if halted {
						break
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// BenchmarkWarmStage prices the fast-forward's warm stage on its own: the
// events of each sampled-long program's first stageInstrs instructions,
// recorded before the timer starts, applied by warmEvents to a fresh TAGE
// and cache hierarchy, as the warm stage does between window markers.
func BenchmarkWarmStage(b *testing.B) {
	for _, name := range sampledLong {
		b.Run(name, func(b *testing.B) {
			prog, image := buildWorkload(b, name)
			events := make([]isa.Event, 0, stageInstrs)
			events, _, _ = isa.NewArchState(image.CloneCOW()).RunEvents(prog, stageInstrs, events)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pred := bpu.NewTAGE(bpu.DefaultTAGEConfig())
				hier := mem.NewHierarchy(config.Skylake().Mem)
				b.StartTimer()
				warmEvents(pred, hier, events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}
