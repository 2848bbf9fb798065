// Command iterskewd runs the clock-skew-scheduling service: an HTTP/JSON
// daemon (internal/serve) where clients upload a netlist once, receive its
// content-addressed graph handle, and then fire any number of cheap
// scheduling jobs against it. SIGTERM/SIGINT triggers a graceful drain:
// the daemon stops admitting (healthz flips to 503), finishes in-flight
// jobs, and exits 0.
//
//	iterskewd -addr :8077 -maxinflight 8 -cachebytes 268435456 \
//	          -debugaddr 127.0.0.1:8078
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"iterskew/internal/obs"
	"iterskew/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iterskewd:", err)
		os.Exit(1)
	}
}

// outWriter resolves a log-destination flag: "" disables (nil writer), "-"
// means stdout, anything else is a file opened for append.
func outWriter(path string) (io.Writer, error) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return os.Stdout, nil
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func run() error {
	var (
		addr         = flag.String("addr", ":8077", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		debugAddr    = flag.String("debugaddr", "", "obs debug sidecar address (pprof + expvar); empty disables")
		maxInFlight  = flag.Int("maxinflight", 0, "max simultaneous admitted requests; excess gets 429 (0 = GOMAXPROCS)")
		cacheBytes   = flag.Int64("cachebytes", 0, "compiled-graph cache byte budget (0 = unbounded)")
		maxJobRounds = flag.Int("maxjobrounds", 0, "server-wide clamp on a job's max_rounds (0 = scheduler defaults)")
		addrFile     = flag.String("addrfile", "", "write the resolved listen address to this file once serving")
		drainTO      = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight jobs on shutdown")
		accessLog    = flag.String("accesslog", "", "structured JSONL access-log file (\"-\" = stdout; empty disables)")
		eventsOut    = flag.String("events", "", "daemon JSONL event sink: round/qor events (\"-\" = stdout; empty disables)")
		showVersion  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *showVersion {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			fmt.Println("iterskewd (no build info)")
			return nil
		}
		fmt.Printf("iterskewd %s %s\n", bi.Main.Version, bi.GoVersion)
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" || st.Key == "vcs.time" || st.Key == "vcs.modified" {
				fmt.Printf("  %s=%s\n", st.Key, st.Value)
			}
		}
		return nil
	}

	rec := obs.NewRecorder()
	if w, err := outWriter(*eventsOut); err != nil {
		return fmt.Errorf("events: %w", err)
	} else if w != nil {
		rec.EnableEvents(w)
	}
	alw, err := outWriter(*accessLog)
	if err != nil {
		return fmt.Errorf("accesslog: %w", err)
	}
	srv := serve.New(serve.Config{
		MaxInFlight:  *maxInFlight,
		CacheBytes:   *cacheBytes,
		MaxJobRounds: *maxJobRounds,
		Recorder:     rec,
		AccessLog:    alw,
	})

	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr, rec)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "iterskewd: debug sidecar on %s\n", ds.Addr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	resolved := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "iterskewd: serving on %s\n", resolved)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved+"\n"), 0o644); err != nil {
			return fmt.Errorf("addrfile: %w", err)
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "iterskewd: %s: draining\n", sig)
	}

	// Drain first — stop admitting, let in-flight jobs (including streams)
	// finish — then shut the listener down. Shutdown alone is not enough:
	// it would wait forever on an open stream and closes keep-alives that a
	// client mid-backoff might still want for its final response read.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "iterskewd: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errc // Serve has returned http.ErrServerClosed
	fmt.Fprintln(os.Stderr, "iterskewd: drained, exiting")
	return nil
}
