// Package accel simulates the heterogeneous compute platform of the paper's
// evaluation: an Nvidia Xavier NX SoC (CPU + GPU + 2×DLA sharing one memory
// pool) plus a Luxonis OAK-D camera accelerator with its own memory.
//
// The physical hardware is replaced by a virtual-time model. All work goes
// through one charge path, called by ExecFrom for a processor and by
// CopyFrom for the DMA channel: the work queues FIFO behind the lane's
// earlier work, runs for a jittered latency at a jittered power draw, adds
// its latency to the lane's busy time and advances the platform's virtual
// time to its completion. The caller books the returned cost into its own
// frame record. Latency and power anchors come from Tables I and IV of the
// paper, so simulated seconds and Joules are directly comparable to the
// paper's columns, while remaining deterministic and machine-independent.
package accel

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/rng"
)

// Kind classifies processors; performance tables are keyed by Kind.
type Kind int

// Processor kinds present in the evaluation platform.
const (
	KindCPU Kind = iota
	KindGPU
	KindDLA
	KindOAKD
)

// String returns the kind name as used in report tables.
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "CPU"
	case KindGPU:
		return "GPU"
	case KindDLA:
		return "DLA"
	case KindOAKD:
		return "OAK-D"
	default:
		return "?"
	}
}

// Proc is one processor of the platform.
type Proc struct {
	// ID uniquely names the processor instance ("gpu", "dla0", ...).
	ID string
	// Kind selects the performance table row.
	Kind Kind
	// Pool names the memory pool models must be resident in to execute.
	Pool string

	lane lane
}

// lane is one FIFO timeline of the platform: a processor's, or the DMA
// channel's.
type lane struct {
	// horizon is the completion time of the last work queued on the lane.
	horizon time.Duration
	// busy sums the latencies charged to the lane.
	busy time.Duration
}

// Busy returns the processor's busy time: the sum of every latency
// ExecFrom charged to it.
func (p *Proc) Busy() time.Duration { return p.lane.busy }

// MemPool is a named memory arena that meters its used bytes. GPU and DLAs
// share the SoC pool (as on the Xavier NX); the OAK-D has its own. Which
// engines hold the bytes is the dynamic model loader's record, not the
// pool's.
type MemPool struct {
	Name     string
	Capacity int64

	used int64
}

// NewMemPool returns an empty pool of the given byte capacity.
func NewMemPool(name string, capacity int64) *MemPool {
	return &MemPool{Name: name, Capacity: capacity}
}

// Alloc reserves size bytes. It fails if capacity would be exceeded; the
// dynamic model loader evicts before it allocates, so a failure is a loader
// bookkeeping bug.
func (p *MemPool) Alloc(size int64) error {
	if size < 0 {
		return fmt.Errorf("accel: negative allocation %d in pool %s", size, p.Name)
	}
	if p.used+size > p.Capacity {
		return fmt.Errorf("accel: pool %s full (%d used, %d requested, %d capacity)",
			p.Name, p.used, size, p.Capacity)
	}
	p.used += size
	return nil
}

// Free releases size bytes; freeing more than is allocated is an error so
// loader bookkeeping bugs surface immediately.
func (p *MemPool) Free(size int64) error {
	if size < 0 || size > p.used {
		return fmt.Errorf("accel: free of %d bytes in pool %s with %d used", size, p.Name, p.used)
	}
	p.used -= size
	return nil
}

// Available returns the free byte count.
func (p *MemPool) Available() int64 { return p.Capacity - p.used }

// Cost is the latency and energy charged for one operation.
type Cost struct {
	Lat    time.Duration
	Energy float64 // Joules
	PowerW float64 // average power over Lat, for reporting
}

// latJitter and powerJitter are the relative standard deviations applied
// to every execution's latency and power.
const (
	latJitter   = 0.04
	powerJitter = 0.03
)

// SoC is the simulated platform: processors, memory pools and virtual time.
// It is not safe for concurrent use; the detection pipeline is a sequential
// per-frame loop, as in the paper.
type SoC struct {
	Procs map[string]*Proc
	Pools map[string]*MemPool

	// timeScale multiplies every execution latency before jitter: 1 is the
	// characterized Xavier-NX-class baseline, 2 a half-speed device, 0.5 a
	// double-speed one. The fleet layer sets it through SetTimeScale to
	// model heterogeneous device capacities from one set of zoo anchors; at
	// the default 1.0 the multiplication is exact and results are
	// bit-identical to a platform without scaling.
	timeScale float64

	// r draws the compute procs' jitter, dmaR the copy channel's.
	r    *rng.Stream
	dmaR *rng.Stream
	// dma is the copy channel's lane.
	dma lane
	// parked marks a powered-down platform: every execution is refused. The
	// fleet's autoscaler parks a device after draining it, so a retired
	// device can never serve again.
	parked bool
	// sorted is SortedProcs' answer and idsByKind ProcIDsByKind's, per
	// kind; NewSoC lists both once.
	sorted    []*Proc
	idsByKind map[Kind][]string
}

// NewSoC assembles a platform from processors and pools, with jitter drawn
// from the stream r.
func NewSoC(procs []*Proc, pools []*MemPool, r *rng.Stream) *SoC {
	s := &SoC{
		Procs:     make(map[string]*Proc, len(procs)),
		Pools:     make(map[string]*MemPool, len(pools)),
		timeScale: 1,
		r:         r,
		dmaR:      r.Fork("dma"),
	}
	for _, p := range procs {
		s.Procs[p.ID] = p
	}
	for _, p := range pools {
		s.Pools[p.Name] = p
	}
	// Nothing adds, removes or re-kinds a processor after construction, so
	// the sorted processor list and each kind's ID list are fixed here.
	for _, p := range s.Procs {
		s.sorted = append(s.sorted, p)
	}
	sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i].ID < s.sorted[j].ID })
	s.idsByKind = make(map[Kind][]string)
	for _, p := range s.sorted {
		s.idsByKind[p.Kind] = append(s.idsByKind[p.Kind], p.ID)
	}
	return s
}

// SetTimeScale replaces the latency multiplier applied to every subsequent
// execution (already-queued work keeps its drawn spans). The fleet layer uses
// it for heterogeneous device capacity and for transient brownouts — latency
// spikes that scale a device's service rate mid-run. Non-positive scales are
// rejected so a malformed fault schedule cannot stop or reverse time.
func (s *SoC) SetTimeScale(scale float64) error {
	if scale <= 0 {
		return fmt.Errorf("accel: non-positive time scale %v", scale)
	}
	s.timeScale = scale
	return nil
}

// Now returns the platform's virtual time: the latest completion of any
// work charged so far, read from the lanes' FIFO horizons. The multi-stream
// event loop completes work out of global order, so it is a horizon, never
// rewound; wall-clock time never enters any measurement.
func (s *SoC) Now() time.Duration {
	now := s.dma.horizon
	for _, p := range s.sorted {
		now = max(now, p.lane.horizon)
	}
	return now
}

// Park powers the platform down: every subsequent ExecFrom/CopyFrom is
// refused. Memory pools and busy times are left intact — a parked device is
// retired capacity, not a wiped one — so end-of-run accounting (busy time,
// residency leak checks) still reads the device's final state.
func (s *SoC) Park() { s.parked = true }

// Parked reports whether the platform is powered down.
func (s *SoC) Parked() bool { return s.parked }

// Proc returns the processor with the given ID.
func (s *SoC) Proc(id string) (*Proc, error) {
	p, ok := s.Procs[id]
	if !ok {
		return nil, fmt.Errorf("accel: unknown processor %q", id)
	}
	return p, nil
}

// PoolOf returns the memory pool backing processor id.
func (s *SoC) PoolOf(id string) (*MemPool, error) {
	p, err := s.Proc(id)
	if err != nil {
		return nil, err
	}
	pool, ok := s.Pools[p.Pool]
	if !ok {
		return nil, fmt.Errorf("accel: processor %q references unknown pool %q", id, p.Pool)
	}
	return pool, nil
}

// Span is one queued execution on a processor's FIFO timeline: when it
// actually started and finished, how long it queued behind earlier work, and
// the cost charged (latency = pure execution, excluding the queueing delay).
type Span struct {
	Start time.Duration
	End   time.Duration
	// Wait is the queueing delay between the caller being ready and the
	// processor becoming free (zero when the processor was idle).
	Wait time.Duration
	Cost Cost
}

// ExecFrom simulates a workload with the given mean latency (seconds) and
// mean power (Watts) submitted to processor procID at stream time ready: the
// execution starts at the later of ready and the processor's queue horizon
// (FIFO — earlier submissions finish first), runs for the jittered latency,
// and pushes the horizon and the clock to its completion. This is the
// contention primitive of the multi-stream serving runtime: concurrent
// streams on one accelerator pay each other's execution latency as Wait. A
// lone caller submits at Now(), where nothing is queued.
func (s *SoC) ExecFrom(procID string, ready time.Duration, latMean, powerMean float64) (Span, error) {
	p, err := s.Proc(procID)
	if err != nil {
		return Span{}, err
	}
	return s.charge(s.r, &p.lane, ready, latMean, powerMean)
}

// DMAProcID names the copy channel in traces. It is not a Proc:
// deviceStats-style reductions that iterate Procs never see it, and
// ExecFrom refuses it, so compute charging cannot land on the copy channel
// by mistake.
const DMAProcID = "dma"

// CopyFrom simulates an engine-image copy submitted to the SoC's single DMA
// channel at stream time ready: copies serialize FIFO against each other,
// exactly like ExecFrom on a processor, but never occupy compute — this is
// the overlap primitive speculative prefetch rides (a load transfers over
// DMA while the serving processor keeps executing). The channel draws its
// jitter from its own forked stream, so copies never touch the compute
// procs' draws: a run with prefetch enabled consumes exactly the demand-path
// draws of a prefetch-free run (forks do not advance the parent).
func (s *SoC) CopyFrom(ready time.Duration, latMean, powerMean float64) (Span, error) {
	return s.charge(s.dmaR, &s.dma, ready, latMean, powerMean)
}

// charge is the one charge path behind ExecFrom and CopyFrom: validate, draw
// latency then power from r, start at the later of ready and the lane's FIFO
// horizon, and advance the lane's horizon and its busy time.
func (s *SoC) charge(r *rng.Stream, l *lane, ready time.Duration, latMean, powerMean float64) (Span, error) {
	if s.parked {
		return Span{}, fmt.Errorf("accel: platform is parked")
	}
	if latMean < 0 || powerMean < 0 {
		return Span{}, fmt.Errorf("accel: negative workload parameters (%v s, %v W)", latMean, powerMean)
	}
	if ready < 0 {
		return Span{}, fmt.Errorf("accel: negative ready time %v", ready)
	}
	lat := r.Jitter(latMean*s.timeScale, latJitter)
	pow := r.Jitter(powerMean, powerJitter)
	d := time.Duration(lat * float64(time.Second))
	start := max(ready, l.horizon)
	end := start + d
	l.horizon = end
	l.busy += d
	energy := d.Seconds() * pow // rounded duration, so Energy == Lat·Power exactly
	return Span{Start: start, End: end, Wait: start - ready, Cost: Cost{Lat: d, Energy: energy, PowerW: pow}}, nil
}

// SortedProcs returns the processors in ID order. Every call returns the
// slice NewSoC built, so callers must treat it as read-only.
func (s *SoC) SortedProcs() []*Proc { return s.sorted }

// ProcIDsByKind returns processor IDs of the given kind in sorted order, or
// nil if there are none. Every call returns the slice NewSoC built, so
// callers must treat it as read-only.
func (s *SoC) ProcIDsByKind(k Kind) []string { return s.idsByKind[k] }

// Platform memory sizing. The Xavier NX exposes 8 GB shared between the OS
// and all engines; after the OS, capture pipeline and runtime are accounted
// for, roughly 2 GB remain for TensorRT engines — small enough that the full
// FP32 zoo does not fit and the dynamic model loader must evict (as the
// paper's Table III swap counts imply). The OAK-D's usable blob storage is
// modelled at 450 MB, fitting both supported models.
const (
	MB          = int64(1) << 20
	SoCPoolMB   = 2048
	OAKDPoolMB  = 450
	SoCPoolName = "soc"
	OAKDPool    = "oakd"
)

// DefaultPlatform builds the paper's evaluation platform: CPU, GPU, two
// DLAs (sharing the SoC pool) and an OAK-D.
func DefaultPlatform(r *rng.Stream) *SoC {
	procs := []*Proc{
		{ID: "cpu", Kind: KindCPU, Pool: SoCPoolName},
		{ID: "gpu", Kind: KindGPU, Pool: SoCPoolName},
		{ID: "dla0", Kind: KindDLA, Pool: SoCPoolName},
		{ID: "dla1", Kind: KindDLA, Pool: SoCPoolName},
		{ID: "oakd", Kind: KindOAKD, Pool: OAKDPool},
	}
	pools := []*MemPool{
		NewMemPool(SoCPoolName, SoCPoolMB*MB),
		NewMemPool(OAKDPool, OAKDPoolMB*MB),
	}
	return NewSoC(procs, pools, r)
}
