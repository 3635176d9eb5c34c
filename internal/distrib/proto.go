// Package distrib splits fleet serving across OS processes: a coordinator
// owns stream placement and the durable checkpoint journal, and per-device
// workers own live session state, speaking a line-delimited JSON protocol
// over stdio pipes.
//
// The protocol is built so that worker death is survivable and cheap to
// handle: every serve request carries the stream's last journaled checkpoint
// (the versioned internal/checkpoint wire format, frames carried by
// reference as scenario name + render seed), every response returns the
// next one, and requests are idempotent — each carries a per-worker sequence
// ID, and a worker that already processed an ID replays its cached response
// instead of advancing the stream twice. The coordinator drives each stream
// in bounded chunks with a per-request deadline and bounded exponential-
// backoff retry; when a worker stops answering (or its process exits), the
// coordinator declares it dead and re-dispatches its orphaned streams to
// surviving workers from the journal. A kill -9 therefore costs at most one
// chunk of replayed frames per stream, and — because detection draws are
// keyed by the shared content seed, not the serving process — the decision
// sequence of a recovered stream is bit-identical to an uninterrupted run
// (the churn conformance contract, extended across process boundaries).
package distrib

// Protocol commands.
const (
	// CmdHello opens a connection: the worker answers with its device name.
	CmdHello = "hello"
	// CmdServe advances one stream by up to Chunk frames, opening or
	// restoring its session first if the worker does not hold it live.
	CmdServe = "serve"
	// CmdShutdown closes every live session; the response reports residency
	// references still held (must be zero) before the worker exits.
	CmdShutdown = "shutdown"
)

// Request is one coordinator→worker command, a single JSON line.
type Request struct {
	// ID is the per-worker request sequence number. Retries re-send the same
	// ID; a worker that already processed it replays the cached response, so
	// a lost response cannot double-advance a stream.
	ID  uint64 `json:"id"`
	Cmd string `json:"cmd"`

	// Stream identifies the stream a serve request advances — the idempotent
	// re-dispatch key shared by every worker that ever serves it.
	Stream string `json:"stream,omitempty"`
	// Scenario + RenderSeed + Frames carry the stream's frames by reference:
	// the worker re-renders the scenario and serves the Frames-length prefix.
	Scenario   string  `json:"scenario,omitempty"`
	RenderSeed uint64  `json:"render_seed,omitempty"`
	Frames     int     `json:"frames,omitempty"`
	PeriodSec  float64 `json:"period_sec,omitempty"`
	// Policy names the stream's decision logic in the worker's registry
	// (builtin: "fixed:<model>/<proc>").
	Policy string `json:"policy,omitempty"`
	// Chunk bounds the frames served by this request (<= 0: run to the end).
	Chunk int `json:"chunk,omitempty"`
	// Checkpoint is the stream's last journaled wire-format checkpoint; a
	// worker without the session live restores from it (absent: open fresh).
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// Response is one worker→coordinator reply, a single JSON line.
type Response struct {
	// ID echoes the request's sequence number.
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	// Err carries the failure when OK is false (a protocol or serving error —
	// not retryable, unlike a transport timeout).
	Err string `json:"err,omitempty"`
	// Device is the worker's name (hello, shutdown).
	Device string `json:"device,omitempty"`

	// Serve results: Served is total frames recorded so far, Done marks
	// stream completion, Digest is the FNV-1a decision digest over the full
	// record sequence (set when done), and Checkpoint is the post-chunk
	// wire-format checkpoint for the coordinator's journal.
	Served     int    `json:"served,omitempty"`
	Done       bool   `json:"done,omitempty"`
	Digest     uint64 `json:"digest,omitempty"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// LeakedRefs reports residency references still held after shutdown
	// closed every live session — always zero unless release bookkeeping
	// broke.
	LeakedRefs int `json:"leaked_refs,omitempty"`
}
