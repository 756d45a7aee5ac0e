package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"acb/internal/isa"
	"acb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the build golden")

// goldenBuild pins one built image: its program and every non-zero word.
type goldenBuild struct {
	Name  string `json:"name"`
	Train bool   `json:"train"`
	Seed  uint64 `json:"seed_offset"`
	Insts int    `json:"instructions"`
	Prog  string `json:"prog_sha256"`
	Words int    `json:"words"`
	Image string `json:"image_sha256"`
}

// hashBuild hashes the program's encoding and the image's non-zero words
// in ascending address order, each as its address and value.
func hashBuild(t *testing.T, p []isa.Instruction, m *isa.Memory) (prog string, words int, image string) {
	t.Helper()
	ph := sha256.New()
	if err := isa.EncodeProgram(ph, p); err != nil {
		t.Fatal(err)
	}
	ih := sha256.New()
	var buf [16]byte
	m.Words(func(addr, val int64) bool {
		binary.LittleEndian.PutUint64(buf[:8], uint64(addr))
		binary.LittleEndian.PutUint64(buf[8:], uint64(val))
		ih.Write(buf[:])
		words++
		return true
	})
	return hex.EncodeToString(ph.Sum(nil)), words, hex.EncodeToString(ih.Sum(nil))
}

// TestBuildGolden pins every suite image word for word: each workload and
// its training variant, at seed offsets 0 and 1 (the benchmark adds its
// seed to Spec.Seed). A change to how images are built or stored must
// leave every hash as it is. Regenerate with `go test ./internal/workload/
// -run TestBuildGolden -update` only when a workload is meant to change.
func TestBuildGolden(t *testing.T) {
	var got []goldenBuild
	for _, w := range workload.All() {
		for _, off := range []uint64{0, 1} {
			for _, train := range []bool{false, true} {
				w := w
				w.Spec.Seed += off
				build := w.Build
				if train {
					build = w.BuildTrain
				}
				p, m := build()
				g := goldenBuild{Name: w.Name, Train: train, Seed: off, Insts: len(p)}
				g.Prog, g.Words, g.Image = hashBuild(t, p, m)
				got = append(got, g)
			}
		}
	}

	path := filepath.Join("testdata", "build_golden.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d images)", path, len(got))
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenBuild
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d images, current code built %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: built %+v, golden %+v", label(want[i]), got[i], want[i])
		}
	}
}

func label(g goldenBuild) string {
	v := "ref"
	if g.Train {
		v = "train"
	}
	return fmt.Sprintf("%s/%s/seed+%d", g.Name, v, g.Seed)
}
