package experiments

import (
	"fmt"

	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/textplot"
)

// The multi-stream sweep: 1–8 concurrent streams of 10 fps video, at most
// 600 frames each, assigned the evaluation suite's scenarios round-robin so
// concurrent streams carry heterogeneous content. A frame's deadline is the
// next frame's arrival.
const (
	multiStreamMax       = 8
	multiStreamPeriodSec = 0.1
	multiStreamMaxFrames = 600
)

// MultiStreamRow aggregates one concurrency level of the sweep.
type MultiStreamRow struct {
	Streams int
	Frames  int
	// AvgIoU and SuccessRate are detection quality across all streams.
	AvgIoU      float64
	SuccessRate float64
	// Latency is the arrival-to-completion profile across every frame of
	// every stream (queueing behind other streams included).
	Latency metrics.LatencyProfile
	// DeadlineMissRate is the fraction of frames finishing after the next
	// frame's arrival.
	DeadlineMissRate float64
	// AvgQueueWaitSec is the mean per-frame processor queueing delay.
	AvgQueueWaitSec float64
	// SwapsPerStream is the mean model/accelerator swap count per stream;
	// Loads and Evictions are the shared loader's totals.
	SwapsPerStream float64
	Loads          int
	Evictions      int
}

// MultiStreamResult is the full sweep.
type MultiStreamResult struct {
	PeriodSec float64
	Rows      []MultiStreamRow
	// PerStream maps stream count -> the raw per-stream serve results, for
	// tests and deeper analysis.
	PerStream map[int][]*runtime.StreamResult
}

// MultiStream sweeps stream count over one shared platform: N concurrent
// SHIFT streams (one policy instance each, heterogeneous scenarios) served
// by runtime.Serve with FIFO processor queueing and reference-counted
// engine residency. It reports the contention regime the paper's
// single-stream evaluation cannot express: tail latency, deadline misses
// and swap behaviour versus concurrency.
//
// The serve loop is a sequential discrete-event simulation, so results are
// deterministic and independent of the host's worker count.
func MultiStream(env *Env) (*MultiStreamResult, error) {
	scenarios := scene.EvaluationSuite()
	res := &MultiStreamResult{
		PeriodSec: multiStreamPeriodSec,
		PerStream: map[int][]*runtime.StreamResult{},
	}
	for n := 1; n <= multiStreamMax; n++ {
		// Fresh shared platform and loader per concurrency level.
		sys := env.System()
		dml := loader.New(sys, loader.EvictLRR)
		specs := make([]runtime.StreamSpec, n)
		for i := 0; i < n; i++ {
			sc := scenarios[i%len(scenarios)]
			frames := env.Frames(sc)
			if len(frames) > multiStreamMaxFrames {
				frames = frames[:multiStreamMaxFrames]
			}
			pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
			if err != nil {
				return nil, err
			}
			specs[i] = runtime.StreamSpec{
				Name:      fmt.Sprintf("%s#%d", sc.Name, i),
				Frames:    frames,
				PeriodSec: multiStreamPeriodSec,
				Policy:    pol,
			}
		}
		streams, err := runtime.Serve(sys, dml, specs)
		if err != nil {
			return nil, fmt.Errorf("experiments: serve %d streams: %w", n, err)
		}
		res.PerStream[n] = streams
		res.Rows = append(res.Rows, summarizeServe(n, streams, dml.Stats()))
	}
	return res, nil
}

// summarizeServe reduces one concurrency level's serve results to a row.
func summarizeServe(n int, streams []*runtime.StreamResult, ls loader.Stats) MultiStreamRow {
	row := MultiStreamRow{Streams: n, Loads: ls.Loads, Evictions: ls.Evictions}
	var lats []float64
	var waitSum, iouSum float64
	success, missed, swaps := 0, 0, 0
	for _, s := range streams {
		lats = append(lats, s.Latencies()...)
		waitSum += s.QueueWaitSec()
		missed += s.MissCount()
		swaps += pipeline.SwapCount(s.Result)
		for _, rec := range s.Result.Records {
			iouSum += rec.IoU
			if rec.IoU >= metrics.SuccessIoU {
				success++
			}
		}
	}
	row.Frames = len(lats)
	if row.Frames > 0 {
		f := float64(row.Frames)
		row.AvgIoU = iouSum / f
		row.SuccessRate = float64(success) / f
		row.DeadlineMissRate = float64(missed) / f
		row.AvgQueueWaitSec = waitSum / f
	}
	row.Latency = metrics.Latencies(lats)
	row.SwapsPerStream = float64(swaps) / float64(n)
	return row
}

// Row returns the sweep row for a stream count.
func (r *MultiStreamResult) Row(streams int) (MultiStreamRow, bool) {
	for _, row := range r.Rows {
		if row.Streams == streams {
			return row, true
		}
	}
	return MultiStreamRow{}, false
}

// Report renders the sweep as a table.
func (r *MultiStreamResult) Report() string {
	rows := [][]string{{"Streams", "IoU", "Success", "Lat p50 (s)", "Lat p99 (s)",
		"Miss Rate", "Queue Wait (s)", "Swaps/Stream", "Loads", "Evictions"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Streams),
			fmt.Sprintf("%.3f", row.AvgIoU),
			fmt.Sprintf("%.1f%%", row.SuccessRate*100),
			fmt.Sprintf("%.3f", row.Latency.P50),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
			fmt.Sprintf("%.4f", row.AvgQueueWaitSec),
			fmt.Sprintf("%.1f", row.SwapsPerStream),
			fmt.Sprintf("%d", row.Loads),
			fmt.Sprintf("%d", row.Evictions),
		})
	}
	return textplot.Table(fmt.Sprintf(
		"Multi-stream serving: SHIFT streams sharing one platform at %.0f fps", 1/r.PeriodSec), rows)
}
