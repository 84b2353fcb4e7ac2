// Command mrserve is the job-serving daemon: a long-lived HTTP service
// that caches built problem instances and runs MapReduce algorithm jobs
// concurrently on a bounded worker pool. One job table coalesces identical
// in-flight requests into one execution and keeps the newest results in
// LRU order (internal/service).
//
// Usage:
//
//	mrserve [-addr :8080] [-pool P] [-workers W] [-results R] [-instances I]
//	        [-data DIR] [-ledger DIR] [-preload FILE ...] [-debug-addr :6060]
//	        [-log-level info] [-trace-rounds N]
//
// With -debug-addr, a second listener serves net/http/pprof under
// /debug/pprof/ — kept off the public API address so profiling endpoints
// are never exposed where jobs are. -log-level selects the threshold for
// structured job lifecycle logs on stderr (debug, info, warn, error, or
// off); every event carries the job id and algorithm. -trace-rounds sizes
// the per-job wall-clock round trace served by GET /v1/jobs/{id}/trace
// (0 = default 256, negative disables).
//
// With -data, uploaded and preloaded graphs are spooled to DIR as
// content-addressed binary containers (<id>.mrg) and served zero-copy
// through a read-only mmap — one physical mapping shared by every
// concurrent job on the instance, and instances evicted from the cache
// resurrect from the spool. -preload (repeatable) registers graph files
// from local disk at start-up under the same content id an upload of the
// bytes would get; raw .mrg containers open in O(header) time.
//
// With -ledger, every completed job is appended to a durable Merkle-
// chained ledger in DIR and a restarted daemon serves pre-crash results
// bit-identically without re-executing them. Recovery repairs a torn tail
// record (kill -9 mid-write) by truncating it exactly once; any other
// damage degrades the ledger to memory-only operation (the daemon keeps
// serving) and is pinpointed by POST /v1/ledger/verify. Pair -ledger with
// -data so jobs on uploaded graphs stay replayable across restarts; audit
// the chain offline with cmd/mrverify.
//
// API:
//
//	POST /v1/jobs            {"instance": {...}, "alg": "...", "seed": N, "wait": true}
//	GET  /v1/jobs/{id}       poll a submitted job
//	GET  /v1/jobs/{id}/trace the job's wall-clock round trace (phase timings)
//	GET  /v1/instances   list cached instances
//	POST /v1/instances   upload a graph (text, binary container, or gzip of either)
//	GET  /v1/algorithms  the algorithm registry and parameter schemas
//	GET  /v1/ledger      ledger head and stats (chain link, persisted seq)
//	POST /v1/ledger/verify  re-verify every checksum and chain link
//	GET  /metrics        plain-text counters and job-latency histogram
//
// Jobs are deterministic: the same (instance spec, alg, args, µ, seed)
// returns bit-identical solution summaries and model metrics whether
// served cold, batched with concurrent identical requests, or from cache —
// and identical to cmd/mrrun run with the same spec and seed.
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight
// jobs, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 0, "concurrent jobs (0 = GOMAXPROCS)")
	workers := flag.Int("workers", 1, "per-job round-executor pool size: 0|1 sequential, >1 that many goroutines, -1 one per CPU")
	results := flag.Int("results", 256, "done results the job table keeps, least recently used evicted first")
	instances := flag.Int("instances", 64, "instance-cache capacity")
	dataDir := flag.String("data", "", "directory for spooled binary containers; uploads are served zero-copy from mmap")
	ledgerDir := flag.String("ledger", "", "directory for the durable job ledger (empty disables); completed jobs survive restarts and are served without re-execution")
	ledgerSegBytes := flag.Int64("ledger-segment-bytes", 0, "ledger segment rotation threshold in bytes (0 = 8 MiB default)")
	debugAddr := flag.String("debug-addr", "", "extra listen address for net/http/pprof profiling endpoints (empty disables)")
	logLevel := flag.String("log-level", "info", "structured log threshold: debug, info, warn, error, or off")
	traceRounds := flag.Int("trace-rounds", 0, "per-job round-trace retention for GET /v1/jobs/{id}/trace (0 = default 256, negative disables)")
	var preload stringList
	flag.Var(&preload, "preload", "graph file to register as an uploaded instance at start-up (repeatable; any format)")
	flag.Parse()

	logger := log.New(os.Stderr, "mrserve: ", log.LstdFlags)
	slogger, err := buildLogger(*logLevel)
	if err != nil {
		logger.Fatal(err)
	}
	engine := service.NewEngine(service.Config{
		Pool:               *pool,
		Workers:            *workers,
		Results:            *results,
		Instances:          *instances,
		DataDir:            *dataDir,
		LedgerDir:          *ledgerDir,
		LedgerSegmentBytes: *ledgerSegBytes,
		TraceRounds:        *traceRounds,
		Logger:             slogger,
	})
	for _, path := range preload {
		id, info, err := engine.PreloadFile(path)
		if err != nil {
			logger.Fatalf("preload %s: %v", path, err)
		}
		logger.Printf("preloaded %s: id=%s n=%d m=%d mapped=%v", path, id, info.N, info.M, info.Mapped)
	}
	server := newHTTPServer(*addr, service.NewServer(engine))

	if *debugAddr != "" {
		// Profiling endpoints get their own mux and listener so they never
		// leak onto the public API address.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Printf("pprof listening on %s", *debugAddr)
			if err := newHTTPServer(*debugAddr, dbg).ListenAndServe(); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (pool=%d workers=%d)", *addr, *pool, *workers)
		errc <- server.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		logger.Print("shutting down: draining in-flight jobs")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := server.Shutdown(shutdownCtx); err != nil {
			logger.Printf("http shutdown: %v", err)
		}
		engine.Close()
		logger.Print("bye")
	}
}

// Connection bounds of both listeners. A client gets readHeaderTimeout to
// finish its request headers and a kept-alive connection idleTimeout to send
// the next request, so a socket that opens and goes quiet costs a goroutine
// and a descriptor for seconds, not for ever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer returns a server for handler with the connection bounds
// above. There is deliberately no WriteTimeout (and no ReadTimeout, whose
// deadline would cover the upload bodies): a wait:true job holds its
// response open for as long as the job runs, and a CPU profile for as long
// as it samples.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// buildLogger maps -log-level onto a text slog.Logger on stderr; "off"
// returns nil (the engine substitutes its nop logger).
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "off":
		return nil, nil
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level must be debug, info, warn, error or off, got %q", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint([]string(*s)) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}
