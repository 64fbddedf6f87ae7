package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLIConfig wires the standard observability command-line surface shared
// by the repository's binaries: -trace (JSONL trace export),
// -metrics-addr (live /metrics + /healthz + /debug/pprof endpoint),
// -telemetry (end-of-run summary table), and -v / -q verbosity control
// for the leveled Logger.
type CLIConfig struct {
	TracePath   string
	MetricsAddr string
	Telemetry   bool
	Verbose     bool
	Quiet       bool

	// Log is ready after Activate; before that it is a Normal-level
	// stderr logger, so commands may use it unconditionally.
	Log *Logger

	ft   *FileTracer
	srv  *Server
	errw io.Writer
}

// RegisterFlags installs the shared observability flags on fs (the
// default flag.CommandLine when nil) and returns the config they fill.
func RegisterFlags(fs *flag.FlagSet) *CLIConfig {
	if fs == nil {
		fs = flag.CommandLine
	}
	c := &CLIConfig{Log: NewLogger(os.Stderr, Normal)}
	fs.StringVar(&c.TracePath, "trace", "", "write a JSONL span trace to this file")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /trace and /debug/pprof on this address (e.g. :8090)")
	fs.BoolVar(&c.Telemetry, "telemetry", false, "print an end-of-run telemetry summary table to stderr")
	fs.BoolVar(&c.Verbose, "v", false, "verbose progress output")
	fs.BoolVar(&c.Quiet, "q", false, "suppress progress output")
	return c
}

// Activate applies the parsed flags: sets the logger level, installs a
// file tracer when -trace was given, and starts the metrics endpoint
// when -metrics-addr was given (announcing the bound address on errw).
// Call Close before exiting to flush the trace.
func (c *CLIConfig) Activate(errw io.Writer) error {
	c.errw = errw
	switch {
	case c.Quiet:
		c.Log.SetLevel(Quiet)
	case c.Verbose:
		c.Log.SetLevel(Verbose)
	}
	if c.TracePath != "" {
		ft, err := TraceToFile(c.TracePath, TracerOptions{})
		if err != nil {
			return err
		}
		c.ft = ft
		Install(ft.Tracer)
	}
	if c.MetricsAddr != "" {
		srv, err := ServeMetrics(c.MetricsAddr, nil, nil)
		if err != nil {
			c.closeTrace()
			return err
		}
		c.srv = srv
		if errw != nil {
			fmt.Fprintf(errw, "metrics endpoint listening on %s\n", srv.Addr)
		}
	}
	return nil
}

func (c *CLIConfig) closeTrace() {
	if c.ft != nil {
		Install(nil)
		if err := c.ft.Close(); err != nil {
			c.Log.Errorf("trace export: %v\n", err)
		}
		c.ft = nil
	}
}

// Close flushes the trace file, writes the -telemetry summary table and
// stops the metrics endpoint.
func (c *CLIConfig) Close() {
	c.closeTrace()
	if c.Telemetry {
		errw := c.errw
		if errw == nil {
			errw = os.Stderr
		}
		fmt.Fprintf(errw, "\n--- telemetry summary ---\n")
		if err := WriteSummary(errw, nil); err != nil {
			c.Log.Errorf("telemetry summary: %v\n", err)
		}
	}
	if c.srv != nil {
		_ = c.srv.Close()
		c.srv = nil
	}
}
