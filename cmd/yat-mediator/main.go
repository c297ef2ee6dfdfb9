// Command yat-mediator is the YAT mediator console of Figure 2: it connects
// remote wrappers, imports their structural and query capabilities, loads
// YAT_L integration programs and evaluates queries.
//
// Usage:
//
//	yat-mediator [-script session.txt] [-lint] [-check-types] [-parallel N] [-timeout D]
//	             [-cache N] [-partial] [-retries N] [-connect-timeout D] [-inject SPEC]
//	             [-trace-out FILE] [-metrics-addr HOST:PORT] [-serve HOST:PORT]
//	             [-tenant-concurrency N] [-tenant-queue N] [-tenant-queue-timeout D]
//	             [-tenant-rate F] [-tenant-burst N]
//
// With -serve, the mediator additionally exposes the multi-tenant HTTP
// query front door (internal/frontdoor): POST /query streams results as
// NDJSON, GET /healthz reports source health, and each tenant (X-Tenant
// header) is admitted through its own token bucket, concurrency limit and
// bounded wait queue — the -tenant-* flags set the default limits. The
// console keeps running alongside; with -script, the process keeps serving
// after the script ends. The `connect` command accepts a comma-separated
// address list to spread one logical source across replica wrapper
// processes (least-loaded routing with per-replica circuit breakers and
// failover; see the `replicas` command).
//
// With -lint, every plan is verified by the planlint static checker after
// each optimizer rewriting step and before execution; a broken invariant
// aborts the query with a diagnostic instead of a wrong answer.
//
// With -check-types, queries run in wire conformance mode: every wrapper
// response row is validated against the pushed plan's inferred pattern type
// (derived from the structures the sources exported), and a source shipping
// data that violates its own declared schema aborts the query with a
// structured violation instead of a silently wrong answer. The `typecheck`
// command renders the inferred types without executing anything.
//
// With -parallel N > 1, `query` evaluates plans on the parallel execution
// engine with N workers: independent subplans and DJoin sub-queries run
// concurrently (result rows and statistics are identical to serial
// execution). -timeout bounds each query's wall-clock time; an expired
// deadline cancels in-flight wrapper requests instead of hanging.
//
// With -cache N > 0, the mediator keeps an N-entry LRU cache of wrapper
// results keyed by (source, plan, parameter bindings): repeated pushes of the
// same sub-query — within one query's DJoin or across queries of a session —
// are answered locally without a wrapper round trip. The cache assumes
// sources do not change underneath the session.
//
// Fault tolerance controls:
//
//   - -retries N sets the transport retry budget per wrapper request
//     (attempts including the first; default 3, 1 disables retrying).
//   - -connect-timeout D bounds `connect` — TCP dial plus hello exchange
//     (default 10s).
//   - -partial makes `query` degrade gracefully: rows derivable from live
//     sources are returned and dead sources are reported per source,
//     instead of failing the whole query.
//   - -inject SPEC injects transport faults into every wrapper connection
//     (client side), for demonstrating and debugging the retry layer. SPEC
//     is comma-separated: rate=0.05,seed=1,kinds=drop+truncate+garble,
//     delay=50ms,killnth=3 (kinds defaults to drop+delay+truncate+garble).
//
// Observability controls:
//
//   - `profile <query> ;` runs the query with per-operator tracing on and
//     renders the annotated plan tree (EXPLAIN ANALYZE): wall time, rows,
//     fetches/pushes/tuples, cache hits, retry recovery and breaker state
//     per operator. -trace-out FILE additionally exports each profiled
//     query as Chrome trace-event JSON (open in chrome://tracing or
//     Perfetto; repeated profiles overwrite the file).
//   - -metrics-addr HOST:PORT serves cumulative mediator metrics as JSON
//     on /metrics and the standard pprof handlers under /debug/pprof/.
//
// The console reads commands from stdin:
//
//	connect <name> <addr>[,addr..] connect a wrapper (N addrs = replica set)
//	replicas                       per-replica routing state of replicated sources
//	import <name>                  (re)import a wrapper's capabilities
//	load <file>                    load a YAT_L program (view definitions)
//	assume <dropdoc> <keepdoc>     declare a containment assumption
//	status                         list sources and views
//	health                         per-source circuit-breaker state
//	query  <query> ;               optimize and evaluate (YAT_L or XQuery-FLWR)
//	stream <query> ;               evaluate, printing rows as they arrive
//	xq <query> ;                   evaluate XQuery-FLWR, showing the lowered rule
//	naive  <query> ;               evaluate without optimization
//	explain <query> ;              show naive and optimized plans
//	profile <query> ;              evaluate with tracing, render the span tree
//	typecheck <query> ;            show the optimized plan with inferred types
//	help                           list commands
//	quit
//
// Queries may be written in YAT_L (MAKE ... MATCH ... WITH ... WHERE ...) or
// in the XQuery-FLWR dialect of internal/xq (for $v in doc("d")/path ...);
// the mediator detects the dialect from the first token.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/faults"
	"repro/internal/feed"
	"repro/internal/frontdoor"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/typecheck"
	"repro/internal/waiswrap"
	"repro/internal/wire"
	"repro/internal/xq"
	xqcompile "repro/internal/xq/compile"
)

// dialConfig carries the connection-level configuration every `connect`
// command uses: dial deadline, retry budget, and the optional fault
// injector wrapping each new wrapper connection.
type dialConfig struct {
	connectTimeout time.Duration
	retry          *wire.RetryPolicy
	inject         *faults.Injector
	traceOut       string        // -trace-out: Chrome trace JSON destination for `profile`
	metrics        *obs.Registry // -metrics-addr registry, fed by every query
}

func main() {
	script := flag.String("script", "", "read commands from a file instead of stdin")
	lint := flag.Bool("lint", false, "verify plan invariants after every rewrite and before execution")
	checkTypes := flag.Bool("check-types", false, "validate wrapper responses against their declared structural types")
	parallel := flag.Int("parallel", 1, "execution workers per query (1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none), e.g. 30s")
	cache := flag.Int("cache", 0, "wrapper-result cache entries (0 = no caching)")
	partial := flag.Bool("partial", false, "degrade gracefully: return rows from live sources, report dead ones")
	retries := flag.Int("retries", 0, "transport attempts per wrapper request (0 = default 3, 1 = no retries)")
	batchChunk := flag.Int("batch-chunk", 0, "binding sets per batched DJoin push (0 = default)")
	streamBuffer := flag.Int("stream-buffer", 0, "row buffer between a streamed query and its consumer (0 = default)")
	connectTimeout := flag.Duration("connect-timeout", 10*time.Second, "deadline for connect (dial + hello)")
	inject := flag.String("inject", "", "inject transport faults, e.g. rate=0.05,seed=1,kinds=drop+garble")
	traceOut := flag.String("trace-out", "", "write each profiled query as Chrome trace-event JSON to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (JSON) and /debug/pprof/ on this address")
	serveAddr := flag.String("serve", "", "serve the multi-tenant HTTP query front door on this address")
	tenantConcurrency := flag.Int("tenant-concurrency", 8, "front door: concurrent queries per tenant")
	tenantQueue := flag.Int("tenant-queue", 16, "front door: queued queries per tenant beyond the concurrency limit (negative = no queue)")
	tenantQueueTimeout := flag.Duration("tenant-queue-timeout", 2*time.Second, "front door: longest a queued query waits for a slot")
	tenantRate := flag.Float64("tenant-rate", 0, "front door: sustained queries/sec per tenant (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "front door: token-bucket burst per tenant (0 = derived from rate)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yat-mediator: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	sess := &dialConfig{connectTimeout: *connectTimeout}
	if *retries > 0 {
		p := wire.DefaultRetryPolicy
		p.MaxAttempts = *retries
		sess.retry = &p
	}
	if *inject != "" {
		cfg, err := parseInjectSpec(*inject)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yat-mediator: -inject: %v\n", err)
			os.Exit(1)
		}
		sess.inject = faults.New(cfg)
	}
	sess.traceOut = *traceOut
	if *metricsAddr != "" {
		sess.metrics = obs.NewRegistry()
		plane, err := obs.Serve(*metricsAddr, sess.metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yat-mediator: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer plane.Close()
		fmt.Printf(" metrics and pprof at http://%s/\n", plane.Addr)
	}
	host, _ := os.Hostname()
	fmt.Printf(" yat-mediator is running at %s\n", host)
	opts := mediator.ExecOptions{Parallelism: *parallel, Timeout: *timeout,
		AllowPartial: *partial, CheckTypes: *checkTypes,
		BatchChunk: *batchChunk, StreamBuffer: *streamBuffer}
	// Reject bad tuning values at startup, not silently at the first query.
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "yat-mediator: %v\n", err)
		os.Exit(1)
	}

	m := mediator.New()
	m.CheckInvariants = *lint
	m.EnableCache(*cache)
	m.RegisterFunc("contains", waiswrap.Contains)
	m.RegisterFunc("prefix", feed.Prefix)
	if sess.metrics != nil {
		m.SetMetrics(sess.metrics)
	}

	serving := false
	if *serveAddr != "" {
		door := frontdoor.New(m, frontdoor.Options{
			Limits: frontdoor.Limits{
				MaxConcurrent: *tenantConcurrency,
				QueueDepth:    *tenantQueue,
				QueueTimeout:  *tenantQueueTimeout,
				RatePerSec:    *tenantRate,
				Burst:         *tenantBurst,
			},
			Exec:    opts,
			Metrics: sess.metrics,
		})
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "yat-mediator: -serve: %v\n", err)
			os.Exit(1)
		}
		// No WriteTimeout: responses stream for as long as the query runs;
		// the per-query deadline (door MaxTimeout) bounds them instead.
		srv := &http.Server{Handler: door.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "yat-mediator: front door: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Printf(" front door is running at %s\n", ln.Addr())
		serving = true
	}

	if err := repl(in, os.Stdout, m, opts, sess, !serving); err != nil {
		fmt.Fprintf(os.Stderr, "yat-mediator: %v\n", err)
		os.Exit(1)
	}
	if serving {
		// Console input is done (script consumed or stdin closed) but the
		// front door keeps serving; deployments run connect scripts this way.
		fmt.Println(" console closed; front door still serving")
		select {}
	}
}

// parseInjectSpec parses the -inject flag: comma-separated key=value pairs
// rate, seed, kinds (plus-separated), delay, killnth.
func parseInjectSpec(spec string) (faults.Config, error) {
	var cfg faults.Config
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("bad entry %q (want key=value)", part)
		}
		var err error
		switch key {
		case "rate":
			cfg.Rate, err = strconv.ParseFloat(val, 64)
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "delay":
			cfg.Delay, err = time.ParseDuration(val)
		case "killnth":
			cfg.KillNth, err = strconv.Atoi(val)
		case "kinds":
			for _, k := range strings.Split(val, "+") {
				switch k {
				case "drop":
					cfg.Kinds = append(cfg.Kinds, faults.Drop)
				case "delay":
					cfg.Kinds = append(cfg.Kinds, faults.Delay)
				case "truncate":
					cfg.Kinds = append(cfg.Kinds, faults.Truncate)
				case "garble":
					cfg.Kinds = append(cfg.Kinds, faults.Garble)
				default:
					return cfg, fmt.Errorf("unknown kind %q", k)
				}
			}
		default:
			return cfg, fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return cfg, fmt.Errorf("bad %s: %v", key, err)
		}
	}
	return cfg, nil
}

// repl reads console commands. closeOnExit controls whether wrapper
// connections are torn down when the input ends — the front door keeps
// serving queries after a -script session, so a serving process must keep
// its clients.
func repl(in io.Reader, out io.Writer, m *mediator.Mediator, opts mediator.ExecOptions, sess *dialConfig, closeOnExit bool) error {
	clients := map[string][]*wire.Client{}
	routes := map[string]*route.Replicated{}
	defer func() {
		if !closeOnExit {
			return
		}
		for _, cs := range clients {
			for _, c := range cs {
				c.Close()
			}
		}
	}()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(out, "yat> ")
	var queryBuf strings.Builder
	mode := "" // "", "query", "naive", "explain", "profile", "typecheck", "xq"
	for sc.Scan() {
		line := sc.Text()
		if mode != "" {
			queryBuf.WriteString(line)
			queryBuf.WriteByte('\n')
			if strings.Contains(line, ";") {
				runQuery(out, m, mode, queryBuf.String(), opts, sess)
				queryBuf.Reset()
				mode = ""
			}
			fmt.Fprint(out, "yat> ")
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			fmt.Fprint(out, "yat> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return nil
		case "connect":
			if len(fields) != 3 {
				fmt.Fprintln(out, "usage: connect <name> <host:port>[,host:port...]")
				break
			}
			if err := connect(m, clients, routes, fields[1], fields[2], sess); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			} else if n := len(clients[fields[1]]); n > 1 {
				fmt.Fprintf(out, " connected %s across %d replicas at %s\n", fields[1], n, fields[2])
			} else {
				fmt.Fprintf(out, " connected %s at %s\n", fields[1], fields[2])
			}
		case "import":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: import <name>")
				break
			}
			if err := importCaps(m, clients, fields[1]); err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			} else {
				fmt.Fprintf(out, " imported %s\n", fields[1])
			}
		case "load":
			if len(fields) != 2 {
				fmt.Fprintln(out, "usage: load <file>")
				break
			}
			b, err := os.ReadFile(strings.Trim(fields[1], `"`))
			if err == nil {
				err = m.LoadProgram(string(b))
			}
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			} else {
				fmt.Fprintf(out, " loaded %s (views: %s)\n", fields[1], strings.Join(m.Views(), ", "))
			}
		case "assume":
			if len(fields) < 3 {
				fmt.Fprintln(out, "usage: assume <dropdoc> <keepdoc> [modulo predicate...]")
				break
			}
			modulo := ""
			if len(fields) > 3 {
				modulo = strings.Join(fields[3:], " ")
			}
			if modulo != "" {
				m.Assume(fields[1], fields[2], modulo)
			} else {
				m.Assume(fields[1], fields[2])
			}
			fmt.Fprintf(out, " assuming %s ⊆ %s\n", fields[1], fields[2])
		case "status":
			fmt.Fprint(out, m.Describe())
		case "health":
			printHealth(out, m)
		case "replicas":
			printReplicas(out, routes)
		case "help":
			printHelp(out)
		case "query", "naive", "explain", "profile", "typecheck", "xq", "stream":
			mode = fields[0]
			rest := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
			queryBuf.WriteString(rest)
			queryBuf.WriteByte('\n')
			if strings.Contains(rest, ";") {
				runQuery(out, m, mode, queryBuf.String(), opts, sess)
				queryBuf.Reset()
				mode = ""
			}
		default:
			fmt.Fprintf(out, "unknown command %q (try 'help')\n", fields[0])
		}
		fmt.Fprint(out, "yat> ")
	}
	return sc.Err()
}

// connect dials one wrapper — or, with a comma-separated address list, N
// replica wrappers of the same logical source routed through
// route.Replicated: least-loaded selection, per-replica breakers, failover.
// Capabilities and structures are imported from the first replica (they are
// interchangeable copies by construction; route.New verifies the document
// sets agree).
func connect(m *mediator.Mediator, clients map[string][]*wire.Client, routes map[string]*route.Replicated, name, addrSpec string, sess *dialConfig) error {
	ctx := context.Background()
	if sess.connectTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sess.connectTimeout)
		defer cancel()
	}
	wopts := wire.Options{Retry: sess.retry}
	if sess.inject != nil {
		wopts.WrapConn = sess.inject.WrapConn
	}
	var cs []*wire.Client
	for _, addr := range strings.Split(addrSpec, ",") {
		c, err := wire.DialWith(ctx, strings.TrimSpace(addr), wopts)
		if err != nil {
			for _, prev := range cs {
				prev.Close()
			}
			return err
		}
		cs = append(cs, c)
	}
	iface, err := cs[0].ImportInterface()
	if err != nil {
		var re *wire.RemoteError
		if errors.As(err, &re) {
			// The source exports no interface at all: fetch-only is a
			// legitimate profile and the mediator plans around it.
			iface = nil
		} else {
			// A malformed description is a wrapper bug; connecting anyway
			// would turn it into an opaque planning failure later.
			for _, c := range cs {
				c.Close()
			}
			return fmt.Errorf("connect %s: %w", name, err)
		}
	}
	src := algebra.Source(cs[0])
	if len(cs) > 1 {
		reps := make([]algebra.Source, len(cs))
		for i, c := range cs {
			reps[i] = c
		}
		rt, err := route.New(cs[0].Name(), reps, route.Options{})
		if err != nil {
			for _, c := range cs {
				c.Close()
			}
			return err
		}
		routes[name] = rt
		src = rt
	}
	if err := m.Connect(src, iface); err != nil {
		for _, c := range cs {
			c.Close()
		}
		return err
	}
	clients[name] = cs
	return importStructures(m, cs[0])
}

func importCaps(m *mediator.Mediator, clients map[string][]*wire.Client, name string) error {
	cs, ok := clients[name]
	if !ok || len(cs) == 0 {
		return fmt.Errorf("not connected: %s", name)
	}
	return importStructures(m, cs[0])
}

// printReplicas renders each replicated source's routing table: per-replica
// breaker state, inflight load and lifetime attempts.
func printReplicas(out io.Writer, routes map[string]*route.Replicated) {
	if len(routes) == 0 {
		fmt.Fprintln(out, " no replicated sources")
		return
	}
	names := make([]string, 0, len(routes))
	for n := range routes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rt := routes[n]
		fmt.Fprintf(out, " %s (%s):\n", n, rt.SourceState())
		for _, h := range rt.Health() {
			fmt.Fprintf(out, "   #%d %s: %s inflight=%d served=%d failures=%d", h.ID, h.Addr, h.State, h.Inflight, h.Served, h.Failures)
			if h.LastErr != "" {
				fmt.Fprintf(out, " last: %s", h.LastErr)
			}
			fmt.Fprintln(out)
		}
	}
}

func importStructures(m *mediator.Mediator, c *wire.Client) error {
	sts, err := c.ImportStructures()
	if err != nil {
		return err
	}
	for doc, ref := range sts {
		m.ImportStructure(doc, ref.Model, ref.Pattern)
	}
	return nil
}

// printHelp lists every console command with a one-line usage.
func printHelp(out io.Writer) {
	fmt.Fprint(out, ` commands (queries end with ';' and may span lines):
  connect <name> <addr>[,addr..] connect a wrapper (N addrs = replica set behind one source)
  import <name>                  (re)import a wrapper's capabilities
  load <file>                    load a YAT_L program (view definitions)
  assume <drop> <keep> [modulo]  declare a containment assumption
  status                         list sources and views
  health                         per-source circuit-breaker state
  replicas                       per-replica routing state of replicated sources
  query <query> ;                optimize and evaluate (YAT_L or XQuery-FLWR)
  stream <query> ;               evaluate, printing rows as they arrive
  xq <query> ;                   evaluate XQuery-FLWR, showing the lowered YAT_L rule
  naive <query> ;                evaluate without optimization
  explain <query> ;              show naive and optimized plans
  profile <query> ;              evaluate with tracing, render the span tree
  typecheck <query> ;            show the optimized plan with inferred types
  help                           this list
  quit                           exit
`)
}

func runQuery(out io.Writer, m *mediator.Mediator, mode, src string, opts mediator.ExecOptions, sess *dialConfig) {
	src = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(src), ";"))
	switch mode {
	case "xq":
		q, err := xq.Parse(src)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		rule, err := xqcompile.Rule(q, xqcompile.Options{IsView: func(d string) bool { return m.View(d) != nil }})
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(out, "lowered rule:\n%s", indent(rule.String()))
		res, err := m.ExecuteContext(context.Background(), src, opts)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		printResult(out, res)
	case "explain":
		naive, err := m.Compose(src)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		opt := m.Optimize(naive)
		fmt.Fprintf(out, "naive plan:\n%s\noptimized plan:\n%s",
			indent(algebra.Describe(naive)), indent(algebra.Describe(opt)))
	case "naive":
		naive, err := m.Compose(src)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		res, err := m.ExecutePlan(context.Background(), naive, opts)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		printResult(out, res)
	case "profile":
		popts := opts
		popts.Trace = true
		res, err := m.ExecuteContext(context.Background(), src, popts)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		printProfile(out, res, sess.traceOut)
	case "stream":
		runStream(out, m, src, opts)
	case "typecheck":
		plan, err := m.Compose(src)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		opt := m.Optimize(plan)
		ann, err := m.TypecheckPlan(opt)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		fmt.Fprintf(out, "typed plan (root %s):\n", ann.Root)
		fmt.Fprint(out, indent(typecheck.Render(opt, ann)))
	default:
		res, err := m.ExecuteContext(context.Background(), src, opts)
		if err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
			return
		}
		printResult(out, res)
	}
}

// runStream evaluates a query and prints rows the moment their chunk
// arrives — the console's view of time-to-first-row.
// Alignment is per chunk (the widths of unseen rows are unknowable while
// streaming); the terminal line reports first-row and total latency.
func runStream(out io.Writer, m *mediator.Mediator, src string, opts mediator.ExecOptions) {
	start := time.Now()
	s, err := m.StreamContext(context.Background(), src, opts)
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	defer s.Close()
	fmt.Fprintf(out, " %s\n", strings.Join(s.Cols(), " | "))
	rows := 0
	var firstRow time.Duration
	for c := range s.Chunks() {
		if rows == 0 {
			firstRow = time.Since(start)
		}
		rows += c.Len()
		for _, r := range c.Rows {
			cells := make([]string, len(r))
			for i, cell := range r {
				cells[i] = cell.String()
			}
			fmt.Fprintf(out, " %s\n", strings.Join(cells, " | "))
		}
	}
	total := time.Since(start)
	res, err := s.Result()
	if err != nil {
		fmt.Fprintf(out, "error: %v\n", err)
		return
	}
	fmt.Fprintf(out, " %d rows streamed (first row %v, total %v, fetches=%d pushes=%d tuples=%d bytes=%d)\n",
		rows, firstRow.Round(time.Microsecond), total.Round(time.Microsecond),
		res.Stats.SourceFetches, res.Stats.SourcePushes,
		res.Stats.TuplesShipped, res.Stats.BytesShipped)
	for _, f := range res.SourceErrors {
		cause := f.Err
		for e := cause; e != nil; e = errors.Unwrap(e) {
			cause = e
		}
		fmt.Fprintf(out, " partial: source %s unavailable: %v\n", f.Source, cause)
	}
}

// printProfile renders the EXPLAIN ANALYZE view of a traced query: the
// result summary followed by the annotated span tree, plus the optional
// Chrome trace export.
func printProfile(out io.Writer, res *mediator.Result, traceOut string) {
	printResult(out, res)
	if res.Trace == nil {
		fmt.Fprintln(out, " no trace collected")
		return
	}
	fmt.Fprintf(out, "profile (%d spans, trace %s):\n", res.Trace.SpanCount(), res.Trace.ID)
	fmt.Fprint(out, indent(obs.Render(res.Trace)))
	if traceOut == "" {
		return
	}
	b, err := obs.ChromeTrace(res.Trace)
	if err == nil {
		err = os.WriteFile(traceOut, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(out, "error: trace-out: %v\n", err)
		return
	}
	fmt.Fprintf(out, " chrome trace written to %s\n", traceOut)
}

func printResult(out io.Writer, res *mediator.Result) {
	fmt.Fprint(out, res.Tab.String())
	fmt.Fprintf(out, " %d rows (fetches=%d pushes=%d tuples=%d bytes=%d)\n",
		res.Tab.Len(), res.Stats.SourceFetches, res.Stats.SourcePushes,
		res.Stats.TuplesShipped, res.Stats.BytesShipped)
	if res.Stats.CacheHits > 0 || res.Stats.CacheMisses > 0 {
		fmt.Fprintf(out, " cache: hits=%d misses=%d evictions=%d\n",
			res.Stats.CacheHits, res.Stats.CacheMisses, res.Stats.CacheEvictions)
	}
	if res.Stats.Retries > 0 || res.Stats.Redials > 0 {
		fmt.Fprintf(out, " recovered: retries=%d redials=%d\n", res.Stats.Retries, res.Stats.Redials)
	}
	for _, f := range res.SourceErrors {
		// The chain repeats the source name at every wrapping layer; the
		// console line wants the name once plus the root cause.
		cause := f.Err
		for e := cause; e != nil; e = errors.Unwrap(e) {
			cause = e
		}
		fmt.Fprintf(out, " partial: source %s unavailable: %v\n", f.Source, cause)
	}
}

func printHealth(out io.Writer, m *mediator.Mediator) {
	health := m.Health()
	names := make([]string, 0, len(health))
	for n := range health {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(out, " no sources connected")
		return
	}
	for _, n := range names {
		h := health[n]
		fmt.Fprintf(out, " %s: %s (failures=%d)", n, h.State, h.Failures)
		if h.LastErr != "" {
			fmt.Fprintf(out, " last: %s", h.LastErr)
		}
		fmt.Fprintln(out)
	}
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
