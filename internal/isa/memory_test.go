package isa

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// memModel is what FuzzMemory checks a Memory against: a plain map from
// word index (addr>>3) to value, and the set of pages stored to.
type memModel struct {
	words map[int64]int64
	pages map[int64]bool
}

func newMemModel() memModel {
	return memModel{words: map[int64]int64{}, pages: map[int64]bool{}}
}

func (md memModel) clone() memModel {
	c := newMemModel()
	for k, v := range md.words {
		c.words[k] = v
	}
	for k := range md.pages {
		c.pages[k] = true
	}
	return c
}

// diff is DiffWords over two models.
func (md memModel) diff(o memModel, max int) []MemDiff {
	var keys []int64
	for k := range md.words {
		keys = append(keys, k)
	}
	for k := range o.words {
		if _, dup := md.words[k]; !dup {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out []MemDiff
	for _, k := range keys {
		if a, b := md.words[k], o.words[k]; a != b {
			out = append(out, MemDiff{Addr: k * 8, A: a, B: b})
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	return out
}

// words collects up to max of m's non-zero words through Words (all of
// them when max <= 0), in DiffWords' form against an empty memory.
func words(m *Memory, max int) []MemDiff {
	var out []MemDiff
	m.Words(func(addr, val int64) bool {
		out = append(out, MemDiff{Addr: addr, A: val})
		return max <= 0 || len(out) < max
	})
	return out
}

// fuzzBases are the addresses FuzzMemory's accesses start from; each
// access adds up to ±128 words, so they cross the pages on either side.
var fuzzBases = []int64{
	math.MinInt64 + 1<<10,        // the lowest page
	-1 << 40,                     // far below zero
	-PageBytes - 8,               // last word of page -2
	0,                            // the first dense page
	7 * PageBytes,                // inside the dense range
	(densePages - 1) * PageBytes, // the last dense page
	densePages * PageBytes,       // the page just past the range
	1 << 40,                      // far beyond it
	math.MaxInt64 - 1<<10 + 1,    // the highest page
}

// FuzzMemory drives random Store, Load, CloneCOW, Clone, DiffWords, Words,
// Equal and Footprint sequences over a tree of up to eight memories made
// by CloneCOW and Clone, and checks every result against a plain map
// model.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 5, 2, 0, 0, 1, 3, 0, 0, 9, 1, 1, 3, 0, 0, 4, 0, 1, 2})
	f.Add([]byte{0, 0, 6, 128, 0, 7, 0, 0, 5, 127, 7, 1, 2, 0, 0, 1, 6, 128, 0, 3, 4, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 8, 255, 7, 2, 2, 0, 0, 1, 1, 0, 0, 9, 3, 1, 0, 3, 6, 0})
	f.Add([]byte{0, 0, 2, 255, 7, 9, 3, 0, 2, 0, 1, 8, 0, 3, 0, 0, 2, 255, 0, 5, 4, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		mems := []*Memory{NewMemory()}
		models := []memModel{newMemModel()}
		pick := func() int { return int(next()) % len(mems) }
		addr := func() int64 {
			base := fuzzBases[int(next())%len(fuzzBases)]
			return base + int64(int8(next()))*8 + int64(next()&7)
		}
		for len(data) > 0 {
			switch op := next() % 7; op {
			case 0:
				k, a, v := pick(), addr(), int64(int8(next()))
				mems[k].Store(a, v)
				models[k].words[a>>3] = v
				models[k].pages[a>>PageShift] = true
			case 1:
				k, a := pick(), addr()
				if got, want := mems[k].Load(a), models[k].words[a>>3]; got != want {
					t.Fatalf("memory %d: Load(%#x) = %d, model %d", k, a, got, want)
				}
			case 2, 3:
				k := pick()
				if len(mems) == 8 {
					break
				}
				if op == 2 {
					mems = append(mems, mems[k].CloneCOW())
				} else {
					mems = append(mems, mems[k].Clone())
				}
				models = append(models, models[k].clone())
			case 4:
				k, j, max := pick(), pick(), int(next()%5)-1
				got, want := mems[k].DiffWords(mems[j], max), models[k].diff(models[j], max)
				if !slices.Equal(got, want) {
					t.Fatalf("DiffWords(%d, %d, %d) = %+v, model %+v", k, j, max, got, want)
				}
				if got, want := words(mems[k], max), models[k].diff(newMemModel(), max); !slices.Equal(got, want) {
					t.Fatalf("memory %d: Words up to %d = %+v, model %+v", k, max, got, want)
				}
			case 5:
				k, j := pick(), pick()
				if got, want := mems[k].Equal(mems[j]), len(models[k].diff(models[j], 1)) == 0; got != want {
					t.Fatalf("Equal(%d, %d) = %v, model %v", k, j, got, want)
				}
			case 6:
				k := pick()
				if got, want := mems[k].Footprint(), len(models[k].pages); got != want {
					t.Fatalf("memory %d: Footprint = %d, model %d", k, got, want)
				}
			}
		}
		empty := newMemModel()
		for k, m := range mems {
			if got, want := m.DiffWords(NewMemory(), 0), models[k].diff(empty, 0); !slices.Equal(got, want) {
				t.Fatalf("memory %d holds %+v, model %+v", k, got, want)
			}
			if got, want := words(m, 0), models[k].diff(empty, 0); !slices.Equal(got, want) {
				t.Fatalf("memory %d: Words = %+v, model %+v", k, got, want)
			}
			if got, want := m.Footprint(), len(models[k].pages); got != want {
				t.Fatalf("memory %d: Footprint = %d, model %d", k, got, want)
			}
		}
	})
}

// TestCloneCOWOfFrozenMemory: window jobs restore one checkpoint at once
// while the fast-forward that took it keeps storing. The checkpoint's
// memory owns no page, so CloneCOW and Load only read it; run under -race.
func TestCloneCOWOfFrozenMemory(t *testing.T) {
	const pages = 64
	st := NewArchState(nil)
	at := func(i int) int64 { return int64(i-2) * PageBytes * 3001 } // negative, dense and far pages
	for i := 0; i < pages; i++ {
		st.Mem.Store(at(i), int64(i))
	}
	ck := st.Checkpoint(0)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				re := ck.Restore()
				for i := 0; i < pages; i++ {
					if got := ck.Mem.Load(at(i)); got != int64(i) {
						t.Errorf("checkpoint word %d = %d, want %d", i, got, i)
						return
					}
					re.Mem.Store(at(i), int64(g))
				}
				if re.Mem.Equal(ck.Mem) {
					t.Errorf("a restored memory's stores reached the checkpoint")
					return
				}
			}
		}(g)
	}
	for r := 0; r < 20; r++ {
		for i := 0; i < pages; i++ {
			st.Mem.Store(at(i), -int64(r))
		}
	}
	wg.Wait()
	for i := 0; i < pages; i++ {
		if got := ck.Mem.Load(at(i)); got != int64(i) {
			t.Fatalf("checkpoint word %d = %d after the source stored on, want %d", i, got, i)
		}
	}
}

// chaseImage returns a memory laid out like the suite's largest images: a
// pointer in every word of a 16 MiB table at 8 MiB, 24 MiB in all.
func chaseImage() *Memory {
	const base, span = 8 << 20, 16 << 20
	m := NewMemory()
	for a := int64(base); a < base+span; a += 8 {
		m.Store(a, a+8)
	}
	return m
}

var (
	sinkWord int64
	sinkMem  *Memory
)

// BenchmarkMemory prices the functional memory's operations: Load and
// Store on an owned page, the first Store to a page shared with a COW
// sibling (which copies it), and CloneCOW and DiffWords of a 24 MiB chase
// image. The DiffWords case compares two COW siblings that each copied 64
// pages, as a sampled window's boundary check does.
func BenchmarkMemory(b *testing.B) {
	img := chaseImage()
	const stride = 4104 // a word on the next page, wrapping inside the table
	b.Run("load-owned", func(b *testing.B) {
		var s int64
		a := int64(8 << 20)
		for i := 0; i < b.N; i++ {
			s += img.Load(a)
			a = 8<<20 + (a+stride)&(16<<20-1)
		}
		sinkWord = s
	})
	b.Run("store-owned", func(b *testing.B) {
		m := chaseImage()
		a := int64(8 << 20)
		for i := 0; i < b.N; i++ {
			m.Store(a, int64(i))
			a = 8<<20 + (a+stride)&(16<<20-1)
		}
	})
	b.Run("store-first-shared", func(b *testing.B) {
		var c *Memory
		for i := 0; i < b.N; i++ {
			p := i % 4096
			if p == 0 {
				b.StopTimer()
				c = img.CloneCOW()
				b.StartTimer()
			}
			c.Store(8<<20+int64(p)*PageBytes, int64(i))
		}
	})
	b.Run("clonecow-24MiB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMem = img.CloneCOW()
		}
	})
	b.Run("diffwords-24MiB", func(b *testing.B) {
		x, y := img.CloneCOW(), img.CloneCOW()
		for p := int64(0); p < 64; p++ {
			x.Store(8<<20+p*64*PageBytes, 1)
			y.Store(8<<20+p*64*PageBytes, 1)
		}
		y.Store(8<<20+63*64*PageBytes+8, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(x.DiffWords(y, 3)) != 1 {
				b.Fatal("want one differing word")
			}
		}
	})
}
