package sample

import (
	"context"
	"reflect"
	"runtime"
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

// BenchmarkWarmStage prices the fast-forward's two warmers on their own:
// the events of each sampled-long program's first stageInstrs
// instructions, recorded before the timer starts, applied by
// warmBranches to a fresh TAGE (the predictor warmer, in ns per branch
// event) and by warmAccesses to a fresh cache hierarchy (the cache
// warmer, in ns per load or store event), as each warmer does between
// window markers. Each also reports ns per emulated instruction, which
// sets it beside BenchmarkEmulateStage: the slowest of the three bounds
// the pipeline.
func BenchmarkWarmStage(b *testing.B) {
	for _, name := range sampledLong {
		b.Run(name, func(b *testing.B) {
			prog, image := buildWorkload(b, name)
			events := make([]isa.Event, 0, stageInstrs)
			events, _, _ = isa.NewArchState(image.CloneCOW()).RunEvents(prog, stageInstrs, events)
			branches := 0
			for _, e := range events {
				if e.Op == isa.Br {
					branches++
				}
			}
			b.Run("predictor", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					pred := bpu.NewTAGE(bpu.DefaultTAGEConfig())
					b.StartTimer()
					warmBranches(pred, events)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*branches), "ns/branch")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stageInstrs), "ns/instr")
			})
			b.Run("cache", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					hier := mem.NewHierarchy(config.Skylake().Mem)
					b.StartTimer()
					warmAccesses(hier, events)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(events)-branches)), "ns/access")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stageInstrs), "ns/instr")
			})
		})
	}
}

// warmEvents is the serial warming pass the two warmers split: each
// event, in program order, trains the predictor or touches the caches.
func warmEvents(pred bpu.Predictor, hier *mem.Hierarchy, events []isa.Event) {
	for _, e := range events {
		switch e.Op {
		case isa.Br:
			bpu.Warm(pred, uint64(e.Addr), e.Taken)
		case isa.Load:
			hier.LoadLatency(e.Addr)
		default:
			hier.StoreCommit(e.Addr)
		}
	}
}

// TestWarmersMatchSerialPass: every window's predictor and hierarchy
// clones equal the state one serial warmEvents pass reaches at the
// window's start, where its checkpoint was taken, although the two
// warmers apply the events on goroutines of their own.
func TestWarmersMatchSerialPass(t *testing.T) {
	for _, name := range []string{"gcc", "mcf"} {
		t.Run(name, func(t *testing.T) {
			prog, image := buildWorkload(t, name)
			const budget = 1_000_000 // 20 windows
			plan := PlanForBudget(budget)
			if err := plan.fill(); err != nil {
				t.Fatal(err)
			}
			opts := Options{Budget: budget}
			opts.fill()
			ff := startFastForward(prog, image, plan, &opts, opts.NewPredictor())
			defer ff.stop()

			pred, hier := opts.NewPredictor(), mem.NewHierarchy(opts.Config.Mem)
			arch := isa.NewArchState(image.CloneCOW())
			events := make([]isa.Event, 0, batchEvents)
			var pos int64
			for k := range ff.wins {
				w := &ff.wins[k]
				for pos < w.start {
					var steps int64
					var halted bool
					events, steps, halted = arch.RunEvents(prog, w.start-pos, events[:0])
					warmEvents(pred, hier, events)
					pos += steps
					if halted {
						t.Fatalf("%s halted at %d", name, pos)
					}
				}
				<-w.ready
				switch {
				case w.pred == nil || w.hier == nil || w.ckpt == nil:
					t.Fatalf("window %d of %d has no state", k, len(ff.wins))
				case w.ckpt.Retired != pos || w.ckpt.PC != arch.PC || w.ckpt.Regs != arch.Regs:
					t.Fatalf("window %d: checkpoint at instruction %d, the serial pass is at %d", k, w.ckpt.Retired, pos)
				case !reflect.DeepEqual(w.pred, pred):
					t.Fatalf("window %d (start %d): predictor differs from the serial pass's", k, w.start)
				case !reflect.DeepEqual(w.hier, hier):
					t.Fatalf("window %d (start %d): cache hierarchy differs from the serial pass's", k, w.start)
				}
				w.pred, w.hier = nil, nil // the fast-forward is done with a ready window
			}
			if kept, _, _, err := ff.join(); err != nil || kept != len(ff.wins) {
				t.Fatalf("fast-forward kept %d of %d windows, error %v", kept, len(ff.wins), err)
			}
		})
	}
}

// TestCacheWarmerPanicIsReraised: a panic in the last stage stops the
// emulate stage's hand-offs, and join re-raises it once the predictor
// warmer, which outlives it, has exited too.
func TestCacheWarmerPanicIsReraised(t *testing.T) {
	n := runtime.NumGoroutine()
	w := startWarm(context.Background(), bpu.NewTAGE(bpu.DefaultTAGEConfig()), mem.NewHierarchy(config.Skylake().Mem), nil)
	b, err := w.handOff(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// A ready flag with no window: the cache warmer indexes past wins.
	b.ready = true
	for hands := 0; err == nil; hands++ {
		if hands > ringBatches {
			t.Fatalf("%d hand-offs after the cache warmer died", hands)
		}
		b, err = w.handOff(context.Background(), b)
	}
	defer func() {
		if _, ok := recover().(runtime.Error); !ok {
			t.Fatalf("join did not re-raise the cache warmer's runtime error")
		}
		waitGoroutines(t, n)
	}()
	w.join()
	t.Fatalf("join returned normally after a cache-warmer panic")
}
