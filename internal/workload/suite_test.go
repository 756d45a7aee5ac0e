package workload_test

import (
	"testing"

	"acb/internal/isa"
	"acb/internal/workload"
)

// TestAllWorkloadsBuildAndRun builds every workload and runs it
// functionally for a slice, checking it makes progress and never escapes
// its program.
func TestAllWorkloadsBuildAndRun(t *testing.T) {
	all := workload.All()
	if len(all) < 25 {
		t.Fatalf("suite has only %d workloads", len(all))
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, m := w.Build()
			if len(p) == 0 {
				t.Fatal("empty program")
			}
			st := isa.NewArchState(m)
			steps, halted := st.Run(p, 50_000)
			if halted {
				t.Fatalf("halted after only %d steps (iteration budget too small)", steps)
			}
			if steps != 50_000 {
				t.Fatalf("ran %d steps, want full 50000", steps)
			}
		})
	}
}

func TestCategories(t *testing.T) {
	cats := workload.Categories()
	want := []string{workload.CatClient, workload.CatFSPEC, workload.CatISPEC, workload.CatSPEC17, workload.CatSYSmark, workload.CatServer}
	if len(cats) != len(want) {
		t.Fatalf("categories = %v, want %v", cats, want)
	}
	for i := range want {
		if cats[i] != want[i] {
			t.Fatalf("categories = %v, want %v", cats, want)
		}
	}
	for _, c := range cats {
		if len(workload.ByCategory(c)) == 0 {
			t.Errorf("category %s empty", c)
		}
	}
}

func TestByName(t *testing.T) {
	w, err := workload.ByName("lammps")
	if err != nil {
		t.Fatal(err)
	}
	if w.Category != workload.CatServer {
		t.Errorf("lammps category = %s", w.Category)
	}
	if _, err := workload.ByName("nope"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

var sinkImage *isa.Memory

// BenchmarkBuild prices Workload.Build: one sub-benchmark per workload
// with a pointer-chase table (1-16 MiB of chase slots, the suite's
// largest images) and one that builds the whole suite.
func BenchmarkBuild(b *testing.B) {
	all := workload.All()
	for i := range all {
		w := &all[i]
		if w.Spec.ChaseDepth == 0 {
			continue
		}
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, sinkImage = w.Build()
			}
		})
	}
	b.Run("suite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range all {
				_, sinkImage = all[j].Build()
			}
		}
	})
}
