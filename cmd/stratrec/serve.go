package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stratrec/internal/batch"
	"stratrec/internal/linmodel"
	"stratrec/internal/loadgen"
	"stratrec/internal/server"
	"stratrec/internal/store"
	"stratrec/internal/strategy"
	"stratrec/internal/synth"
	"stratrec/internal/workforce"
)

// runServe implements `stratrec serve`: a multi-tenant recommendation
// server over the catalogs of a tenants file (or synthetic demo tenants),
// plus a -selftest mode that replays a synthetic Poisson workload against
// the live server and prints throughput and latency percentiles.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		tenantsPath = fs.String("tenants", "", "multi-tenant catalog JSON ({\"tenants\": {name: catalog}}); empty hosts synthetic demo tenants")
		objective   = fs.String("objective", "throughput", "platform goal: throughput or payoff")
		mode        = fs.String("mode", "max", "workforce aggregation: sum or max")
		adparPar    = fs.Int("adpar-parallelism", 0, "ADPaR sweep workers: 0 auto (GOMAXPROCS), 1 sequential")
		coalesce    = fs.Int("coalesce", 0, "max queued mutations a tenant loop applies per replan cycle (0 = default 32, 1 = no coalescing)")
		opBuffer    = fs.Int("op-buffer", 0, "per-tenant mutation inbox capacity; beyond it new mutations are shed with 429 (0 = default 64)")
		adparWork   = fs.Int("adpar-workers", 0, "server-wide ADPaR alternative-query pool workers (0 = GOMAXPROCS)")
		adparQueue  = fs.Int("adpar-queue", 0, "alternative queries that may wait for a pool worker before shedding 429 (0 = 2x workers)")
		mutDeadline = fs.Duration("mutation-deadline", 0, "default mutation deadline when no X-Request-Deadline-Ms header is sent; 0 disables projected-wait shedding for headerless mutations")
		logFormat   = fs.String("log", "off", "structured operation log on stderr: json, text, or off")
		logLevel    = fs.String("log-level", "info", "structured log threshold: debug (per-op admit/apply/append/commit/publish), info (terminal reply/shed + lifecycle), warn (sheds only)")
		demoTenants = fs.Int("demo-tenants", 2, "synthetic tenant count when -tenants is empty")
		demoSize    = fs.Int("demo-strategies", 64, "strategies per synthetic tenant")
		seed        = fs.Int64("seed", 2020, "synthetic tenant / selftest workload seed")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")

		dataDir   = fs.String("data-dir", "", "durability root: per-tenant write-ahead log + checkpoints, recovered on startup; empty disables durability")
		syncEvery = fs.Int("wal-sync-every", 1, "fsync the WAL after every n-th record (1 = every acknowledged mutation is durable)")
		gcWindow  = fs.Duration("wal-group-commit-window", 0, "cross-tenant group commit: tenant loops share fsyncs within this window (e.g. 500us); 0 disables, >0 overrides -wal-sync-every")
		ckptEvery = fs.Int("checkpoint-every", 10000, "auto-checkpoint a tenant after n WAL records since the last checkpoint (0 = only via POST /admin/checkpoint)")

		selftest  = fs.Bool("selftest", false, "serve on an ephemeral port, replay a synthetic workload, print the report, exit")
		stEvents  = fs.Int("selftest-requests", 2000, "selftest: total workload events")
		stWorkers = fs.Int("selftest-workers", 8, "selftest: concurrent load workers")
		stRate    = fs.Float64("selftest-rate", 0, "selftest: per-worker Poisson arrival rate in events/s; 0 = closed loop")
		stBatch   = fs.Int("selftest-batch", 0, "selftest: batched ingest mode — group mutations into POST /ops bodies of up to this many ops (0 = per-op endpoints)")
		stExport  = fs.String("selftest-export-workload", "", "selftest: also write the generated workload as a JSON trace to this path")
		stReplay  = fs.String("selftest-workload", "", "selftest: replay a JSON workload trace (one worker) instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := buildServerConfig(catalogFlags{
		objective:   *objective,
		mode:        *mode,
		tenantsPath: *tenantsPath,
		demoTenants: *demoTenants,
		demoSize:    *demoSize,
		seed:        *seed,
		adparPar:    *adparPar,
	})
	if err != nil {
		return err
	}
	cfg.DataDir = *dataDir
	cfg.WALSyncEvery = *syncEvery
	cfg.WALGroupCommitWindow = *gcWindow
	cfg.CheckpointEvery = *ckptEvery
	cfg.ADPaRWorkers = *adparWork
	cfg.ADPaRQueue = *adparQueue
	cfg.MutationDeadline = *mutDeadline
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	cfg.Logger = logger
	for name, tc := range cfg.Tenants {
		tc.Coalesce = *coalesce
		tc.OpBuffer = *opBuffer
		cfg.Tenants[name] = tc
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		if *gcWindow > 0 {
			fmt.Printf("stratrec serve: durability on under %s (group commit window %v, checkpoint every %d)\n",
				*dataDir, *gcWindow, *ckptEvery)
		} else {
			fmt.Printf("stratrec serve: durability on under %s (sync every %d, checkpoint every %d)\n",
				*dataDir, *syncEvery, *ckptEvery)
		}
	}

	if *selftest {
		return runSelftest(s, selftestConfig{
			events:  *stEvents,
			workers: *stWorkers,
			rate:    *stRate,
			batch:   *stBatch,
			seed:    *seed,
			drain:   *drain,
			export:  *stExport,
			replay:  *stReplay,
		})
	}

	fmt.Printf("stratrec serve: %d tenants on %s\n", len(s.TenantNames()), *addr)
	for _, name := range s.TenantNames() {
		fmt.Printf("  /v1/tenants/%s\n", name)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.ListenAndServe(ctx, *addr, *drain); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// buildLogger maps the -log/-log-level flags onto a slog.Logger for
// server.Config.Logger. Logs go to stderr — stdout stays reserved for
// the human-readable startup banner and the selftest report, which CI
// greps.
func buildLogger(format, level string) (*slog.Logger, error) {
	if format == "off" || format == "" {
		return nil, nil
	}
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info or warn)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want json, text or off)", format)
	}
}

// catalogFlags is the tenant-universe selection shared by `serve` and
// `recover -verify`: either a tenants file or seeded synthetic demo
// catalogs. Recovery can only replay a WAL against the same catalogs the
// writing server ran with, so both subcommands accept identical flags.
type catalogFlags struct {
	objective   string
	mode        string
	tenantsPath string
	demoTenants int
	demoSize    int
	seed        int64
	adparPar    int
}

// buildServerConfig materializes the tenant universe of the given flags.
func buildServerConfig(cf catalogFlags) (server.Config, error) {
	var obj batch.Objective
	switch cf.objective {
	case "throughput":
		obj = batch.Throughput
	case "payoff":
		obj = batch.Payoff
	default:
		return server.Config{}, fmt.Errorf("unknown objective %q", cf.objective)
	}
	var agg workforce.Mode
	switch cf.mode {
	case "sum":
		agg = workforce.SumCase
	case "max":
		agg = workforce.MaxCase
	default:
		return server.Config{}, fmt.Errorf("unknown mode %q", cf.mode)
	}

	cfg := server.Config{Tenants: map[string]server.TenantConfig{}}
	if cf.tenantsPath != "" {
		tenants, err := store.LoadTenants(cf.tenantsPath)
		if err != nil {
			return server.Config{}, err
		}
		for _, name := range tenants.Names() {
			cat := tenants.Tenants[name]
			set, models, err := cat.Materialize(func(e store.Entry) linmodel.ParamModels {
				return anchoredModels(e.Params, cat.Workforce)
			})
			if err != nil {
				return server.Config{}, fmt.Errorf("tenant %s: %w", name, err)
			}
			cfg.Tenants[name] = server.TenantConfig{
				Set: set, Models: models,
				Mode: agg, Objective: obj,
				InitialW:    cat.Workforce,
				Parallelism: cf.adparPar,
			}
		}
	} else {
		gen := synth.DefaultConfig(synth.Uniform)
		for i := 0; i < cf.demoTenants; i++ {
			rng := rand.New(rand.NewSource(cf.seed + int64(i)))
			set := gen.Strategies(rng, cf.demoSize)
			name := fmt.Sprintf("tenant-%d", i+1)
			cfg.Tenants[name] = server.TenantConfig{
				Set: set, Models: gen.Models(rng, set),
				Mode: agg, Objective: obj,
				InitialW:    0.7,
				Parallelism: cf.adparPar,
			}
		}
	}
	return cfg, nil
}

// selftestConfig carries the selftest knobs, including workload trace
// export (write the generated sequence as JSON) and replay (drive the
// server from a previously saved trace instead of generating).
type selftestConfig struct {
	events  int
	workers int
	rate    float64
	batch   int
	seed    int64
	drain   time.Duration
	export  string
	replay  string
}

// runSelftest serves on an ephemeral loopback port, replays the workload,
// prints the report, and shuts the server down.
func runSelftest(s *server.Server, cfg selftestConfig) error {
	loadCfg := loadgen.Config{
		Tenants:        s.TenantNames(),
		Workers:        cfg.workers,
		Events:         cfg.events,
		Rate:           cfg.rate,
		RevokeFraction: 0.3,
		DriftFraction:  0.05,
		TightFraction:  0.3,
		PlanEvery:      20,
		K:              3,
		Seed:           cfg.seed,
		BatchSize:      cfg.batch,
	}
	if cfg.replay != "" && cfg.export != "" {
		s.Close()
		return fmt.Errorf("selftest: -selftest-workload and -selftest-export-workload are mutually exclusive")
	}
	if cfg.replay != "" {
		f, err := os.Open(cfg.replay)
		if err != nil {
			s.Close()
			return err
		}
		events, err := synth.ReadTrace(f)
		f.Close()
		if err != nil {
			s.Close()
			return err
		}
		// One worker replays the saved sequence verbatim: revokes stay
		// self-consistent and the run is deterministic in the file.
		loadCfg.Workloads = [][]synth.WorkloadEvent{events}
	}
	if cfg.export != "" {
		workloads, err := loadgen.BuildWorkloads(loadCfg)
		if err != nil {
			s.Close()
			return err
		}
		// Concatenate per-worker sequences: IDs are worker-prefixed (no
		// collisions) and each worker's events stay in order, so the
		// concatenation is itself a valid single-worker workload.
		var all []synth.WorkloadEvent
		for _, wl := range workloads {
			all = append(all, wl...)
		}
		if err := writeWorkloadFile(cfg.export, all); err != nil {
			s.Close()
			return err
		}
		fmt.Printf("selftest: workload trace written to %s (%d events)\n", cfg.export, len(all))
		loadCfg.Workloads = workloads
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return err
	}
	hs := s.HTTPServer("")
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	base := "http://" + ln.Addr().String()
	loadCfg.BaseURL = base
	if loadCfg.Workloads != nil {
		fmt.Printf("selftest: %d tenants at %s, %d pre-built worker sequences\n",
			len(s.TenantNames()), base, len(loadCfg.Workloads))
	} else {
		fmt.Printf("selftest: %d tenants at %s, %d events, %d workers\n",
			len(s.TenantNames()), base, cfg.events, cfg.workers)
	}
	rep, loadErr := loadgen.Run(loadCfg)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	shutdownErr := hs.Shutdown(ctx)
	s.Close()
	<-serveErr // always http.ErrServerClosed after Shutdown

	if loadErr != nil {
		return loadErr
	}
	fmt.Print(rep)
	if shutdownErr != nil {
		return shutdownErr
	}
	if rep.Errors > 0 {
		return fmt.Errorf("selftest: %d of %d ops failed", rep.Errors, rep.Ops)
	}
	return nil
}

// writeWorkloadFile saves a workload event sequence as a JSON trace.
func writeWorkloadFile(path string, events []synth.WorkloadEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := synth.WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// anchoredModels is the Section 3.1 default for catalog entries without
// fitted models, shared with the server's runtime tenant-admin endpoint
// via store.AnchoredModels so both materialization paths agree.
func anchoredModels(p strategy.Params, W float64) linmodel.ParamModels {
	return store.AnchoredModels(p, W)
}
