// Command horsed is the simulation-as-a-service daemon: it manages many
// concurrent named simulation sessions behind the versioned horse-wire
// protocol (api/wire), with admission control over a bounded number of
// running sessions and streaming results.
//
// Usage:
//
//	horsed -socket /run/horsed.sock
//	horsed -socket /tmp/horsed.sock -tcp 127.0.0.1:7117 \
//	       -max-sessions 4
//
// SIGTERM/SIGINT drains gracefully: running sessions are cancelled,
// their watchers receive partial-but-consistent results and Done events,
// then the daemon exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"horse/api/wire"
	"horse/internal/service"
	"horse/internal/simtime"
)

func main() {
	var (
		socket        = flag.String("socket", "", "unix socket path to listen on")
		tcp           = flag.String("tcp", "", "TCP address to listen on (e.g. 127.0.0.1:7117)")
		maxSessions   = flag.Int("max-sessions", 0, "max concurrently running sessions (0 = GOMAXPROCS)")
		queueLimit    = flag.Int("queue", 0, "admission queue length (0 = default 64)")
		progressEvery = flag.Duration("progress-every", 100*time.Millisecond, "virtual-time period of progress pushes")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for sessions to finalize")
	)
	flag.Parse()

	if *socket == "" && *tcp == "" {
		fatal(fmt.Errorf("nothing to listen on: pass -socket and/or -tcp"))
	}

	mgr := service.New(service.Config{
		MaxSessions:   *maxSessions,
		QueueLimit:    *queueLimit,
		ProgressEvery: simtime.FromSeconds(progressEvery.Seconds()),
	})
	srv := service.NewServer(mgr, "horsed/"+wire.V1)

	errc := make(chan error, 2)
	var listeners []string
	if *socket != "" {
		// A stale socket file from a killed daemon blocks the bind;
		// remove it (a live daemon holds the listener, so its bind
		// would have failed us first anyway).
		os.Remove(*socket)
		l, err := net.Listen("unix", *socket)
		if err != nil {
			fatal(err)
		}
		defer os.Remove(*socket)
		listeners = append(listeners, "unix:"+*socket)
		go func() { errc <- srv.Serve(l) }()
	}
	if *tcp != "" {
		l, err := net.Listen("tcp", *tcp)
		if err != nil {
			fatal(err)
		}
		listeners = append(listeners, "tcp:"+l.Addr().String())
		go func() { errc <- srv.Serve(l) }()
	}
	cfg := mgr.Config()
	fmt.Fprintf(os.Stderr, "horsed: listening on %v (max-sessions=%d queue=%d)\n",
		listeners, cfg.MaxSessions, cfg.QueueLimit)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "horsed: %v, draining...\n", s)
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "horsed: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "horsed: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "horsed:", err)
	os.Exit(1)
}
