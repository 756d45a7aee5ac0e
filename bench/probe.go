package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"acb/internal/cluster"
	"acb/internal/experiments"
	"acb/internal/isa"
	"acb/internal/service"
	"acb/internal/wal"
	"acb/internal/workload"
)

// probeNames are the layer probe's simulation inputs: the largest ACB
// winner, branchy integer code, a pointer chaser and a mixed kernel.
var probeNames = []string{"lammps", "gcc", "mcf", "xz"}

// probeReps repeats each timed probe; the median repetition is reported.
const probeReps = 3

// probeLayers measures every layer's unit cost on fixed inputs, after the
// workload's load, so each traced run reports them whatever it
// exercised. The build, simulator and emulator unit costs are reported at
// nominal host speed, divided by the median of the host-speed samples
// their step takes before each unit of work; the disk and HTTP costs are
// host times.
func probeLayers(cfg settings, tr *tracer, res *result) error {
	step := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		tr.add(span{Name: "probe." + name, Cat: "probe", Lane: 9, Start: t, End: time.Now()})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := step("workload", func() error { return probeBuild(cfg, res) }); err != nil {
		return err
	}
	for _, scheme := range []string{"baseline", "acb"} {
		if err := step("sim."+scheme, func() error { return probeSim(cfg, res, scheme) }); err != nil {
			return err
		}
	}
	if err := step("isa", func() error { return probeISA(cfg, res) }); err != nil {
		return err
	}
	if err := step("wal", func() error { return probeWAL(cfg, res) }); err != nil {
		return err
	}
	return step("service", func() error { return probeService(cfg, res) })
}

// probeBuild times Workload.Build of every suite workload.
func probeBuild(cfg settings, res *result) error {
	var ms []float64
	m := cfg.speed.mark()
	for _, w := range workload.All() {
		cfg.speed.sample()
		t := time.Now()
		w.Build()
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	res.layer["workload.build_ms"] = median(ms) / cfg.speed.medianSince(m)
	return nil
}

// probeSim simulates the probe workloads under one scheme and reports
// ooo self time per simulated cycle and allocations per instruction, and
// for ACB the predictor's and the scheme hooks' replayed unit costs. Each
// workload's time is its median of probeReps bare runs; a recorded rerun
// prices its predictor and scheme calls.
func probeSim(cfg settings, res *result, scheme string) error {
	ws, err := workloadsNamed(probeNames)
	if err != nil {
		return err
	}
	var (
		wall, bpuT, hookT time.Duration
		cycles, retired   int64
		mallocs           float64
		lay               layerStats
	)
	m := cfg.speed.mark()
	for _, in := range buildInputs(ws, 0) {
		var walls, allocs []float64
		for rep := 0; rep < probeReps; rep++ {
			cfg.speed.sample()
			run, err := simulate(&in, scheme, cfg.probeBudget, false)
			if err != nil {
				return err
			}
			walls = append(walls, float64(run.wall))
			allocs = append(allocs, float64(run.mallocs))
		}
		run, err := simulate(&in, scheme, cfg.probeBudget, true)
		if err != nil {
			return err
		}
		wall += time.Duration(median(walls))
		sort.Float64s(allocs) // a concurrent GC cycle only adds: take the fewest
		mallocs += allocs[0]
		bpuT += run.bpuTime
		hookT += run.hookTime
		lay.add(run.stats)
		cycles += run.res.Cycles
		retired += run.res.Retired
	}
	kinstr := float64(retired) / 1000
	idx := cfg.speed.medianSince(m)
	res.layer["ooo.self_ns_per_cycle."+scheme] = float64(wall-bpuT-hookT) / float64(cycles) / idx
	res.layer["ooo.allocs_per_kinstr."+scheme] = mallocs / kinstr
	if scheme == "acb" {
		res.layer["bpu.ns_per_call"] = ratio(float64(bpuT), float64(lay.bpuCalls())) / idx
		res.layer["core.hook_ns_per_kinstr"] = float64(hookT) / kinstr / idx
	}
	return nil
}

// probeISA times the functional emulator over the sampled-long programs.
func probeISA(cfg settings, res *result) error {
	ws, err := workloadsNamed(sampledNames)
	if err != nil {
		return err
	}
	inputs := buildInputs(ws, 0)
	steps := 20 * cfg.probeBudget
	var rates []float64
	m := cfg.speed.mark()
	for rep := 0; rep < probeReps; rep++ {
		var n int64
		var d time.Duration
		for i := range inputs {
			cfg.speed.sample()
			st := isa.NewArchState(inputs[i].mem.Clone())
			t := time.Now()
			k, _ := st.Run(inputs[i].prog, steps)
			d += time.Since(t)
			n += k
		}
		rates = append(rates, float64(n)/d.Seconds()/1e6)
	}
	res.layer["isa.emu_minstr_per_s"] = median(rates) * cfg.speed.medianSince(m)
	return nil
}

// probeWAL times fsync'd appends of cluster-journal-sized records.
func probeWAL(cfg settings, res *result) error {
	l, err := wal.Create(filepath.Join(cfg.workDir, "probe-wal.jsonl"), "bench-probe/1", nil)
	if err != nil {
		return err
	}
	rec := map[string]interface{}{
		"op": "submit", "id": "c000001", "key": strings.Repeat("ab", 32),
		"request": service.Request{Experiment: "fig6", Workloads: []string{"lammps"}, Budget: 100_000},
		"t":       time.Now().UTC(),
	}
	var ms []float64
	for i := 0; i < 1000; i++ {
		t := time.Now()
		if err := l.Append(rec); err != nil {
			l.Close()
			return err
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	sort.Float64s(ms)
	res.layer["wal.append_ms.p50"] = percentile(ms, 50)
	res.layer["wal.append_ms.p99"] = percentile(ms, 99)
	return l.Close()
}

// probeService times Request.Key and service.Store per tier: Put
// (persist + fsync), Get from memory, from disk, from a peer over HTTP,
// and a miss in every tier.
func probeService(cfg settings, res *result) error {
	w, err := workload.ByName("lammps")
	if err != nil {
		return err
	}
	tab, err := experiments.Run("fig6", experiments.Options{Budget: 5_000, Workloads: []workload.Workload{w}, Jobs: 1})
	if err != nil {
		return err
	}
	const nKeys = 64
	reqOf := func(seed int64) service.Request {
		return service.Request{Experiment: "fig6", Workloads: []string{w.Name}, Budget: 5_000, Seed: seed}
	}
	var keyUs []float64
	keys := make([]string, 0, nKeys)
	for i := 0; i < 2000; i++ {
		r := reqOf(int64(i))
		t := time.Now()
		k, err := r.Key()
		keyUs = append(keyUs, float64(time.Since(t))/1e3)
		if err != nil {
			return err
		}
		if i < nKeys {
			keys = append(keys, k)
		}
	}
	res.layer["service.request_key_us"] = median(keyUs)

	dir := filepath.Join(cfg.workDir, "probe-store")
	src, err := service.NewStore(fleetStoreCap, dir)
	if err != nil {
		return err
	}
	timeUs := func(n int, f func(i int) bool) ([]float64, error) {
		var us []float64
		for i := 0; i < n; i++ {
			t := time.Now()
			ok := f(i)
			us = append(us, float64(time.Since(t))/1e3)
			if !ok {
				return nil, fmt.Errorf("store probe call %d failed", i)
			}
		}
		return us, nil
	}
	put, err := timeUs(nKeys, func(i int) bool { return src.Put(keys[i], reqOf(int64(i)), tab) == nil })
	if err != nil {
		return err
	}
	res.layer["service.store_put_ms"] = median(put) / 1e3
	got := func(s *service.Store, k string) bool { t, ok := s.Get(k); return ok && t != nil }
	mem, err := timeUs(1000, func(int) bool { return got(src, keys[0]) })
	if err != nil {
		return err
	}
	res.layer["service.store_get_us.mem"] = median(mem)
	// One memory slot and alternating keys: every Get loads from disk.
	diskOnly, err := service.NewStore(1, dir)
	if err != nil {
		return err
	}
	disk, err := timeUs(200, func(i int) bool { return got(diskOnly, keys[i%nKeys]) })
	if err != nil {
		return err
	}
	res.layer["service.store_get_us.disk"] = median(disk)

	// The peer tier: a worker's HTTP API over src, reached through the
	// cluster's peer fetcher.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sched := service.NewScheduler(service.SchedulerConfig{}, src)
	hs := &http.Server{Handler: service.NewServer(sched).Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		sched.Shutdown(ctx)
		<-served
	}()
	fetch := cluster.PeerFetcher("probe", map[string]string{"src": "http://" + ln.Addr().String()}, cluster.NewClient(0, nil))
	peerOnly, err := service.NewStore(1, "")
	if err != nil {
		return err
	}
	peerOnly.SetPeers(fetch, 0)
	peer, err := timeUs(200, func(i int) bool { return got(peerOnly, keys[i%nKeys]) })
	if err != nil {
		return err
	}
	res.layer["service.store_get_us.peer"] = median(peer)
	missing, err := service.NewStore(fleetStoreCap, filepath.Join(cfg.workDir, "probe-miss"))
	if err != nil {
		return err
	}
	missing.SetPeers(fetch, 0)
	absent := make([]string, 200)
	for i := range absent {
		r := reqOf(int64(1_000_000 + i))
		if absent[i], err = r.Key(); err != nil {
			return err
		}
	}
	miss, err := timeUs(len(absent), func(i int) bool { return !got(missing, absent[i]) })
	if err != nil {
		return err
	}
	res.layer["service.store_get_us.miss"] = median(miss)
	return nil
}
