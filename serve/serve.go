// Package serve is the public surface of multiclust's clustering service:
// the async job engine (bounded queue, per-job deadlines, deterministic
// reseed retries, idempotency keys, graceful drain) and its HTTP API,
// re-exported from internal/jobs so programs can embed the service without
// reaching into internal packages.
//
// Minimal embedding:
//
//	eng := serve.New(serve.Config{Workers: 4, QueueSize: 128})
//	mux := http.NewServeMux()
//	mux.Handle("/v1/jobs", eng.Handler())
//	mux.Handle("/v1/jobs/", eng.Handler())
//	// ... serve mux, and on shutdown:
//	ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
//	defer stop()
//	report := eng.Drain(ctx)
//
// The `multiclust -serve` CLI wires exactly this engine onto the ops mux
// next to /metrics, /readyz and the pprof endpoints.
package serve

import (
	"io"

	"multiclust/internal/jobs"
	"multiclust/internal/obs"
)

// Core service types, re-exported verbatim.
type (
	// Engine is the bounded async job engine; see New.
	Engine = jobs.Engine
	// Config sizes the engine (workers, queue bound) and extends its
	// algorithm registries.
	Config = jobs.Config
	// Spec is one job submission: dataset plus algorithm knobs.
	Spec = jobs.Spec
	// Job is one admitted clustering run.
	Job = jobs.Job
	// State is a job's lifecycle position.
	State = jobs.State
	// Status is an immutable snapshot of one job.
	Status = jobs.Status
	// Outcome is the flat result surface of a finished job.
	Outcome = jobs.Outcome
	// Runner executes one attempt of a job; override via Config.Runners.
	Runner = jobs.Runner
	// StreamHandle is the live incremental learner behind one streaming
	// job ("stream": true); custom implementations plug in via
	// Config.Streams.
	StreamHandle = jobs.StreamHandle
	// StreamFactory builds the StreamHandle for an admitted streaming
	// job from its spec.
	StreamFactory = jobs.StreamFactory
	// DrainReport summarizes what graceful shutdown did with admitted jobs.
	DrainReport = jobs.DrainReport
	// Logger is the structured JSONL logger Config.Log accepts; build one
	// with NewLogger.
	Logger = obs.Logger
	// LogLevel orders log severities for NewLogger / ParseLogLevel.
	LogLevel = obs.LogLevel
)

// Lifecycle states.
const (
	StateQueued    = jobs.StateQueued
	StateRunning   = jobs.StateRunning
	StateDone      = jobs.StateDone
	StatePartial   = jobs.StatePartial
	StateFailed    = jobs.StateFailed
	StateCancelled = jobs.StateCancelled
)

// Log levels for NewLogger.
const (
	LogDebug = obs.LogDebug
	LogInfo  = obs.LogInfo
	LogWarn  = obs.LogWarn
	LogError = obs.LogError
)

// Typed admission and lookup errors; the HTTP layer maps them to 429, 503,
// 404, 400 and 409.
var (
	ErrQueueFull = jobs.ErrQueueFull
	ErrDraining  = jobs.ErrDraining
	ErrNotFound  = jobs.ErrNotFound
	ErrBadSpec   = jobs.ErrBadSpec
	ErrConflict  = jobs.ErrConflict
)

// New builds a job engine and starts its worker pool. The zero Config
// resolves to conservative defaults; stop the engine with Drain.
func New(cfg Config) *Engine { return jobs.New(cfg) }

// Algorithms lists the service's built-in algorithm names.
func Algorithms() []string { return jobs.Algorithms() }

// StreamAlgorithms lists the built-in incremental algorithms accepted by
// streaming ("stream": true) job specs.
func StreamAlgorithms() []string { return jobs.StreamAlgorithms() }

// NewLogger builds a structured JSONL logger writing to w, dropping lines
// below min. Wire it into Config.Log for per-job lifecycle lines and into
// the ops mux options for HTTP access logs.
func NewLogger(w io.Writer, min LogLevel) *Logger { return obs.NewLogger(w, min) }

// ParseLogLevel maps a level name ("debug", "info", "warn", "error") to
// its LogLevel — the parser behind the CLI's -log-level flag.
func ParseLogLevel(s string) (LogLevel, error) { return obs.ParseLogLevel(s) }
