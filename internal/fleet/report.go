package fleet

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/textplot"
)

// Summary reduces a fleet run to its headline serving metrics: the run's
// counts plus what Summarize derives from its outcomes and devices.
type Summary struct {
	Counts
	Frames int
	// AvgIoU is detection quality across served frames.
	AvgIoU float64
	// Latency is the arrival-to-completion profile across every served
	// frame (device queueing included).
	Latency metrics.LatencyProfile
	// DeadlineMissRate is the fraction of served frames finishing past
	// their deadline; RejectRate the fraction of offered streams refused.
	DeadlineMissRate float64
	RejectRate       float64
	// AvgQueueDelaySec is the mean admission-queue wait across admitted
	// streams.
	AvgQueueDelaySec float64
	// Loads and Evictions total across device loaders; AvgUtilization is
	// the mean per-device peak-processor busy fraction.
	Loads, Evictions int
	AvgUtilization   float64

	// Recovery metrics (zero on fault-free runs). AvgDowntimeSec is the
	// mean displacement-to-resume wait per migration. PostFaultP99 is the
	// p99 frame latency restricted to frames completed at or after the
	// first fault onset — the tail the fleet serves while absorbing
	// failures. LeakedRefs sums residency references still held after the
	// run (always zero unless migration bookkeeping is broken).
	AvgDowntimeSec float64
	PostFaultP99   float64
	LeakedRefs     int

	// Drained sums the sessions the autoscaler's drains migrated (zero
	// when it is off).
	Drained int
}

// Summarize reduces a fleet result.
func Summarize(res *Result) Summary {
	s := Summary{Counts: res.Counts}
	firstFault := time.Duration(-1)
	for _, ft := range res.Faults {
		if firstFault < 0 || ft.At < firstFault {
			firstFault = ft.At
		}
	}
	var lats, postLats []float64
	var iouSum, delaySum, downSum float64
	missed, admitted := 0, 0
	for _, out := range res.Outcomes {
		if out.Rejected || out.Stream == nil {
			continue
		}
		// Shed streams keep their checkpointed partials; those frames were
		// genuinely served, so quality and latency count them.
		admitted++
		delaySum += out.QueueDelaySec()
		downSum += out.DowntimeSec
		lats = append(lats, out.Stream.Latencies()...)
		missed += out.Stream.MissCount()
		if firstFault >= 0 {
			for _, tm := range out.Stream.Timings {
				if tm.Done >= firstFault {
					postLats = append(postLats, tm.LatencySec())
				}
			}
		}
		for _, rec := range out.Stream.Result.Records {
			iouSum += rec.IoU
		}
	}
	s.Frames = len(lats)
	if s.Frames > 0 {
		f := float64(s.Frames)
		s.AvgIoU = iouSum / f
		s.DeadlineMissRate = float64(missed) / f
	}
	if admitted > 0 {
		s.AvgQueueDelaySec = delaySum / float64(admitted)
	}
	if res.Migrations > 0 {
		s.AvgDowntimeSec = downSum / float64(res.Migrations)
	}
	if res.Offered > 0 {
		s.RejectRate = float64(res.Rejected) / float64(res.Offered)
	}
	s.Latency = metrics.Latencies(lats)
	if len(postLats) > 0 {
		s.PostFaultP99 = metrics.Latencies(postLats).P99
	}
	var utilSum float64
	for _, d := range res.Devices {
		s.Loads += d.Loads
		s.Evictions += d.Evicts
		s.LeakedRefs += d.LeakedRefs
		s.Drained += d.Drained
		utilSum += d.Utilization
	}
	if len(res.Devices) > 0 {
		s.AvgUtilization = utilSum / float64(len(res.Devices))
	}
	return s
}

// Report renders a fleet run: per-device table plus the utilization gauge
// plot, with a recovery line when the run was fault-injected.
func Report(res *Result) string {
	rows := [][]string{{"Device", "Scale", "Streams", "Frames", "Loads", "Evictions", "Busy (s)", "Down (s)", "Peak Util", "Peak Proc"}}
	labels := make([]string, 0, len(res.Devices))
	utils := make([]float64, 0, len(res.Devices))
	for _, d := range res.Devices {
		name := d.Name
		if d.Dead {
			name += " †"
		}
		if d.Retired {
			name += " ↓"
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f", d.Scale),
			fmt.Sprintf("%d", d.Streams),
			fmt.Sprintf("%d", d.Frames),
			fmt.Sprintf("%d", d.Loads),
			fmt.Sprintf("%d", d.Evicts),
			fmt.Sprintf("%.1f", d.BusySec),
			fmt.Sprintf("%.1f", d.DownSec),
			fmt.Sprintf("%.1f%%", d.Utilization*100),
			d.PeakProc,
		})
		labels = append(labels, d.Name)
		utils = append(utils, d.Utilization)
	}
	sum := Summarize(res)
	head := fmt.Sprintf(
		"Fleet: %d offered, %d served, %d rejected | IoU %.3f | p50 %.3fs p99 %.3fs | miss %.1f%% | horizon %.1fs",
		sum.Offered, sum.Served, sum.Rejected, sum.AvgIoU,
		sum.Latency.P50, sum.Latency.P99, sum.DeadlineMissRate*100, res.Horizon.Seconds())
	if st := Status(res); st != "" {
		head += "\n" + st
	}
	return head + "\n\n" +
		textplot.Table("Per-device serving totals", rows) + "\n" +
		textplot.PercentBars("Peak-processor utilization over the fleet horizon", labels, utils, 40)
}

// Status renders one line per recovery feature the run exercised — faults,
// autoscaling, the durability journal — and "" for a plain run.
func Status(res *Result) string {
	sum := Summarize(res)
	var lines []string
	if len(res.Faults) > 0 {
		lines = append(lines, fmt.Sprintf(
			"Faults: %d injected | %d migrations, %d aborted | mean downtime %.2fs | post-fault p99 %.3fs | leaked refs %d",
			len(res.Faults), sum.Migrations, sum.Aborted, sum.AvgDowntimeSec, sum.PostFaultP99, sum.LeakedRefs))
	}
	if sum.ScaleOuts > 0 || sum.ScaleIns > 0 {
		lines = append(lines, fmt.Sprintf(
			"Autoscale: %d scale-outs, %d scale-ins (↓=retired) | peak %d devices | %d sessions drained",
			sum.ScaleOuts, sum.ScaleIns, sum.PeakDevices, sum.Drained))
	}
	if sum.JournalWrites > 0 {
		lines = append(lines, fmt.Sprintf(
			"Durability: %d crashes | %d frames replayed, %d best-effort shed | journal %d writes, %.1f KiB",
			sum.Crashes, sum.ReplayedFrames, sum.Shed,
			sum.JournalWrites, float64(sum.JournalBytes)/1024))
	}
	return strings.Join(lines, "\n")
}
