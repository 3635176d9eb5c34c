// Top-level benchmark harness: one benchmark per table and figure of the
// paper's evaluation (see DESIGN.md §5 for the experiment index), plus the
// ablation benchmarks DESIGN.md §7 calls out. Each benchmark regenerates the
// corresponding result on the simulated platform and logs the headline
// numbers; wall-clock time measures the harness, while the logged values are
// simulated seconds and Joules comparable to the paper's columns.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/confgraph"
	"repro/internal/experiments"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/scene"
	"repro/internal/sched"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the shared characterization/graph environment.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(1, experiments.DefaultValidationFrames)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkTableI regenerates Table I (single-model statistics on CPU, GPU
// and DLA).
func BenchmarkTableI(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(e, 300, 300)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			gpu, _ := res.Cell("YoloV7", accel.KindGPU)
			b.Logf("Table I YoloV7@GPU: %.3fs %.2fW %.3fJ (paper: 0.13s 15.1W 1.97J)",
				gpu.TimeSec, gpu.PowerW, gpu.EnergyJ)
		}
	}
}

// BenchmarkTableIII regenerates the main results table over the full
// six-scenario evaluation suite.
func BenchmarkTableIII(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIII(e, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			shift, _ := res.Summary("SHIFT")
			marlin, _ := res.Summary("Marlin")
			b.Logf("SHIFT: iou=%.3f time=%.3fs energy=%.3fJ nonGPU=%.1f%% swaps=%d pairs=%.1f (paper: 0.598 0.047s 0.262J 68.7%% 42 4.3)",
				shift.AvgIoU, shift.AvgTimeSec, shift.AvgEnergyJ, shift.NonGPUFrac*100, shift.Swaps, shift.PairsUsed)
			b.Logf("Marlin: iou=%.3f time=%.3fs energy=%.3fJ (paper: 0.614 0.132s 1.201J)",
				marlin.AvgIoU, marlin.AvgTimeSec, marlin.AvgEnergyJ)
		}
	}
}

// BenchmarkTableIV regenerates the full characterization table.
func BenchmarkTableIV(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV(e, 300)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			v7, _ := res.Row("YoloV7")
			tiny, _ := res.Row("YoloV7-Tiny")
			b.Logf("Table IV: YoloV7 iou=%.3f, Tiny iou=%.3f (paper: 0.618, 0.533)",
				v7.AvgIoU, tiny.AvgIoU)
		}
	}
}

// BenchmarkFigure1 regenerates the e-a-l comparison of single-family scaling
// vs the multi-model zoo.
func BenchmarkFigure1(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates the single-model efficiency timelines.
func BenchmarkFigure2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(e, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the scenario-1 SHIFT timeline.
func BenchmarkFigure3(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("Figure 3: %d swaps, first at frame %d (paper: transitions near 50/500/1100/1650)",
				len(res.SwapFrames), res.SwapFrames[0])
		}
	}
}

// BenchmarkFigure4 regenerates the scenario-2 SHIFT timeline.
func BenchmarkFigure4(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 runs the sensitivity sweep on the quick grid (the full
// 1,920-configuration grid is cmd/sweep -full).
func BenchmarkFigure5(b *testing.B) {
	e := env(b)
	cfg := experiments.QuickSweepConfig()
	cfg.Scenarios = []*scene.Scenario{scene.Scenario2()}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5(e, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c := res.Correlations["energy knob"]
			b.Logf("Figure 5: energy knob vs energy corr %+.3f (paper: negative)", c[1])
		}
	}
}

// runSHIFTWith runs SHIFT over scenario 2 with custom options and returns
// the summary plus loader stats.
func runSHIFTWith(b *testing.B, e *experiments.Env, mutate func(*pipeline.Options), graph *confgraph.Graph) (metrics.Summary, loader.Stats) {
	b.Helper()
	opts := pipeline.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	if graph == nil {
		graph = e.Graph
	}
	shift, err := pipeline.NewSHIFT(e.System(), e.Ch, graph, opts)
	if err != nil {
		b.Fatal(err)
	}
	sc := scene.Scenario2()
	res, err := shift.Run(sc.Name, e.Frames(sc))
	if err != nil {
		b.Fatal(err)
	}
	return metrics.Summarize(res), shift.Loader().Stats()
}

// BenchmarkAblationGraphDepth compares the full confidence graph against a
// distance-threshold-0 graph (per-model lookups only, no cross-model edges).
func BenchmarkAblationGraphDepth(b *testing.B) {
	e := env(b)
	opts := confgraph.DefaultOptions()
	opts.DistanceThreshold = 0
	flat, err := confgraph.Build(e.Ch, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		full, _ := runSHIFTWith(b, e, nil, nil)
		noDepth, _ := runSHIFTWith(b, e, nil, flat)
		if i == 0 {
			b.Logf("graph depth ablation: full iou=%.3f energy=%.3fJ | depth-0 iou=%.3f energy=%.3fJ",
				full.AvgIoU, full.AvgEnergyJ, noDepth.AvgIoU, noDepth.AvgEnergyJ)
		}
	}
}

// BenchmarkAblationNoNCC disables the NCC keep-gate so the decision path
// runs every frame; the gate's scheduling savings and stability show up as
// the delta in swaps and time.
func BenchmarkAblationNoNCC(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		gated, _ := runSHIFTWith(b, e, nil, nil)
		ungated, _ := runSHIFTWith(b, e, func(o *pipeline.Options) { o.Sched.DisableGate = true }, nil)
		if i == 0 {
			b.Logf("NCC gate ablation: gated swaps=%d time=%.3fs | ungated swaps=%d time=%.3fs",
				gated.Swaps, gated.AvgTimeSec, ungated.Swaps, ungated.AvgTimeSec)
		}
	}
}

// BenchmarkAblationEviction compares the DML's least-recently-requested
// policy against FIFO and largest-first. The standard pool rarely evicts
// once scheduling is stable, so the comparison runs under a tightened pool
// and an accuracy-heavy configuration that pulls large engines in and out.
func BenchmarkAblationEviction(b *testing.B) {
	e := env(b)
	policies := []loader.EvictionPolicy{loader.EvictLRR, loader.EvictFIFO, loader.EvictLargest}
	for i := 0; i < b.N; i++ {
		for _, p := range policies {
			policy := p
			opts := pipeline.DefaultOptions()
			opts.Eviction = policy
			opts.Sched.Knobs = sched.Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
			sys := e.System()
			// 1.3 GB: fits the largest single engine (E6E, 1.1 GB) but not
			// two large engines together, so swaps between hard and easy
			// stretches must evict.
			sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1300*accel.MB)
			shift, err := pipeline.NewSHIFT(sys, e.Ch, e.Graph, opts)
			if err != nil {
				b.Fatal(err)
			}
			sc := scene.Scenario1() // hard stretches force big models in
			res, err := shift.Run(sc.Name, e.Frames(sc))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				s := metrics.Summarize(res)
				stats := shift.Loader().Stats()
				b.Logf("eviction=%s: loads=%d evictions=%d loadEnergy=%.1fJ frameEnergy=%.3fJ",
					policy, stats.Loads, stats.Evictions, stats.LoadEnergyJ, s.AvgEnergyJ)
			}
		}
	}
}

// BenchmarkAblationMomentum varies the prediction-averaging window.
func BenchmarkAblationMomentum(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		for _, m := range []int{1, 30, 120} {
			mom := m
			s, _ := runSHIFTWith(b, e, func(o *pipeline.Options) { o.Sched.Momentum = mom }, nil)
			if i == 0 {
				b.Logf("momentum=%d: iou=%.3f energy=%.3fJ swaps=%d", mom, s.AvgIoU, s.AvgEnergyJ, s.Swaps)
			}
		}
	}
}

// BenchmarkSkipComparison runs the frame-skipping iso-energy comparison
// (the quantified form of the paper's "no tracking, no skipping" claim).
func BenchmarkSkipComparison(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.SkipComparison(e, []*scene.Scenario{scene.Scenario2()}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			closest := res.ClosestSkipByEnergy()
			b.Logf("iso-energy (~%.2fJ): SHIFT iou=%.3f vs skip=%d iou=%.3f",
				res.SHIFT.AvgEnergyJ, res.SHIFT.AvgIoU, closest.Skip, closest.Summary.AvgIoU)
		}
	}
}

// BenchmarkAblationOracleLoads quantifies the paper's free-switching
// assumption: the same Oracle-A decision sequence with and without real
// engine loads.
func BenchmarkAblationOracleLoads(b *testing.B) {
	e := env(b)
	sc := scene.Scenario2()
	frames := e.Frames(sc)
	for i := 0; i < b.N; i++ {
		free, err := baseline.NewOracle(e.System(), baseline.OracleAccuracy)
		if err != nil {
			b.Fatal(err)
		}
		freeRes, err := free.Run(sc.Name, frames)
		if err != nil {
			b.Fatal(err)
		}
		paid, err := baseline.NewOracleWithLoads(e.System(), baseline.OracleAccuracy)
		if err != nil {
			b.Fatal(err)
		}
		paidRes, err := paid.Run(sc.Name, frames)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			f := metrics.Summarize(freeRes)
			p := metrics.Summarize(paidRes)
			b.Logf("Oracle A free-switching subsidy: energy %.3f -> %.3fJ, time %.3f -> %.3fs",
				f.AvgEnergyJ, p.AvgEnergyJ, f.AvgTimeSec, p.AvgTimeSec)
		}
	}
}

// BenchmarkGraphQuality runs the confidence-graph data-efficiency curve.
func BenchmarkGraphQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.GraphQuality(1, []int{100, 400}, 200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Points[len(res.Points)-1]
			b.Logf("graph MAE %.3f vs naive %.3f at %d validation frames",
				last.MAE, last.NaiveMAE, last.ValidationFrames)
		}
	}
}

// BenchmarkMultiStream runs the multi-stream serving sweep (1–8 SHIFT
// streams sharing one platform) and logs the contention headline: tail
// latency and deadline misses at the top concurrency.
func BenchmarkMultiStream(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiStream(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			one, _ := res.Row(1)
			eight, _ := res.Row(8)
			b.Logf("multi-stream @%.0f fps: 1 stream p99=%.3fs miss=%.1f%% | 8 streams p99=%.3fs miss=%.1f%% wait=%.3fs swaps/stream=%.1f",
				1/res.PeriodSec, one.Latency.P99, one.DeadlineMissRate*100,
				eight.Latency.P99, eight.DeadlineMissRate*100, eight.AvgQueueWaitSec, eight.SwapsPerStream)
		}
	}
}

// BenchmarkFleetSweep runs the multi-device serving grid (device count ×
// placement policy under the default tiered workload) and logs the fleet
// headline: residency-affinity vs round-robin tail latency and loader
// traffic at the largest fleet.
func BenchmarkFleetSweep(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCells(e, experiments.FleetGrid(experiments.FleetCell()))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rr, aff := rows[6], rows[8] // 4 devices: round-robin, residency-affinity
			b.Logf("fleet @4 devices: round-robin p99=%.3fs loads=%d | residency-affinity p99=%.3fs loads=%d miss=%.1f%% util=%.0f%%",
				rr.Latency.P99, rr.Loads, aff.Latency.P99, aff.Loads,
				aff.DeadlineMissRate*100, aff.AvgUtilization*100)
		}
	}
}

// BenchmarkFaultSweep runs the fault-tolerance grid (failure rate × placement
// with checkpoint/migration) and logs the recovery headline at the highest
// failure rate.
func BenchmarkFaultSweep(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCells(e, experiments.FaultGrid(experiments.FaultCell(), 6, 12))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			clean, worst := rows[1], rows[len(rows)-1] // residency-affinity, fault-free and 12/min
			b.Logf("faults @12/min: %d migrations, %d aborted, downtime=%.2fs, post-fault p99=%.3fs (fault-free p99=%.3fs), leaked refs=%d",
				worst.Migrations, worst.Aborted, worst.AvgDowntimeSec,
				worst.PostFaultP99, clean.Latency.P99, worst.LeakedRefs)
		}
	}
}

// BenchmarkCrashSweep runs the crash-recovery grid (worker-crash rate ×
// placement on a journaled fleet) and logs the durability headline at the
// highest crash rate: crashes absorbed, frames replayed from checkpoint wire
// bytes, best-effort streams shed, and journal traffic.
func BenchmarkCrashSweep(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCells(e, experiments.FaultGrid(experiments.CrashCell(), 6, 12))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			clean, worst := rows[1], rows[len(rows)-1] // residency-affinity, crash-free and 12/min
			b.Logf("crashes @12/min: %d crashes, %d frames replayed, %d shed, journal %d writes %.1f KiB, post-fault p99=%.3fs (crash-free p99=%.3fs), leaked refs=%d",
				worst.Crashes, worst.ReplayedFrames, worst.Shed,
				worst.JournalWrites, float64(worst.JournalBytes)/1024,
				worst.PostFaultP99, clean.Latency.P99, worst.LeakedRefs)
		}
	}
}

// BenchmarkAutoscaleSweep runs the elasticity grid (workload shape ×
// placement × fixed/elastic capacity) and logs the autoscale headline: the
// burst-shape p99 of the fixed 4-device reference against the elastic fleet,
// and the diurnal drain activity.
func BenchmarkAutoscaleSweep(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCells(e, experiments.AutoscaleGrid(experiments.AutoscaleCell()))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Grid order: shape × placement × (fixed, elastic).
			fixed, elastic, diurnal := rows[2], rows[3], rows[7]
			b.Logf("autoscale burst: fixed4 p99=%.3fs queue=%.2fs | elastic p99=%.3fs peak=%d devices (%d outs) | diurnal: %d ins, %d drained, %d migrations, leaked=%d",
				fixed.Latency.P99, fixed.AvgQueueDelaySec,
				elastic.Latency.P99, elastic.PeakDevices, elastic.ScaleOuts,
				diurnal.ScaleIns, diurnal.Drained, diurnal.Migrations, diurnal.LeakedRefs)
		}
	}
}

// BenchmarkScaleSweep runs a reduced fleet-scale grid — a 100-device fleet
// serving 5 000 streams over a compressed diurnal half hour, single-region
// and on a 4-region shard — and logs the event-loop headline: events/sec
// per region count. The full 1 000-device / 100 000-stream flagship runs in
// cmd/bench.
func BenchmarkScaleSweep(b *testing.B) {
	e := env(b)
	sharded := experiments.DayCell(100, 5000, 1800)
	sharded.Regions = 4
	cells := []experiments.Cell{experiments.DayCell(100, 5000, 1800), sharded}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCells(e, cells)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			one, four := rows[0], rows[1]
			b.Logf("scale @100 devices: 1-region %.0f ev/s | 4-region %.0f ev/s, %d events, served %d/%d",
				one.EventsPerSec(), four.EventsPerSec(), one.Run.Events, one.Served, one.Offered)
		}
	}
}

// BenchmarkPrefetchSweep runs the predictive-prefetch contrast cell — the
// miss-heavy oscillate workload served twice, TAGE swap predictor off then
// on — and logs the headline: the SupraX-style scorecard and the before/after
// swap-stall share of the p99 tail.
func BenchmarkPrefetchSweep(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCells(e, experiments.PrefetchPair(experiments.PrefetchCell()))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			off, on := rows[0], rows[1]
			st := on.Run.Prefetch
			b.Logf("prefetch: coverage=%.3f accuracy=%.3f timeliness=%.3f (%d issued, %d full + %d late hits, %.2fs saved) | swap-stall share of p99: %.4f -> %.4f",
				st.Coverage(), st.Accuracy(), st.Timeliness(),
				st.Issued, st.FullHits, st.LateHits, st.StallSavedSec,
				off.Recorder.Attribution().SwapStallShareOfP99, on.Recorder.Attribution().SwapStallShareOfP99)
		}
	}
}

// BenchmarkRecorderOverhead measures the flight recorder's cost on the
// standard fleet cell: the detached run carries only nil checks on the hot
// paths, so attached-vs-detached wall clock is the whole observability tax.
// The first attached iteration logs the headline attribution.
func BenchmarkRecorderOverhead(b *testing.B) {
	e := env(b)
	for _, record := range []bool{false, true} {
		cell := experiments.FleetCell()
		cell.Record = record
		name := map[bool]string{false: "detached", true: "attached"}[record]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunCell(e, cell)
				if err != nil {
					b.Fatal(err)
				}
				if rec := res.Recorder; i == 0 && rec != nil {
					a := rec.Attribution()
					b.Logf("recorder: %d spans over %d frames | p99=%.3fs, swap-stall share of p99=%.1f%% (queue %.1f%%, exec %.1f%%, interference %.1f%%)",
						len(rec.Spans()), a.Frames, a.P99Sec, a.SwapStallShareOfP99*100,
						a.QueueShareOfP99*100, a.ExecShareOfP99*100, a.InterferenceShareOfP99*100)
				}
			}
		})
	}
}

// BenchmarkSHIFTFrame measures the cost of the full SHIFT loop (load +
// exec + detect + decide) on the harness itself. One op is one whole
// scenario-2 pass, so ns/op and allocs/op do not depend on b.N; ns/frame
// divides by the frames that pass serves.
func BenchmarkSHIFTFrame(b *testing.B) {
	e := env(b)
	sc := scene.Scenario2()
	frames := e.Frames(sc)
	shift, err := pipeline.NewSHIFT(e.System(), e.Ch, e.Graph, pipeline.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shift.Run(sc.Name, frames); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
}

// BenchmarkCharacterization measures the offline stage end to end.
func BenchmarkCharacterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewEnv(uint64(i+1), 300); err != nil {
			b.Fatal(err)
		}
	}
}
