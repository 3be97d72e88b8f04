// Command horsectl is the horsed client: it submits session specs,
// watches their streamed results, and manages session lifecycles over
// the horse-wire protocol.
//
// Usage:
//
//	horsectl -addr unix:/run/horsed.sock submit -name exp1 -watch spec.json
//	horsectl -addr unix:/run/horsed.sock list
//	horsectl -addr unix:/run/horsed.sock status s1
//	horsectl -addr unix:/run/horsed.sock watch s1
//	horsectl -addr unix:/run/horsed.sock cancel s1
//	horsectl -addr unix:/run/horsed.sock retire s1
//
// submit reads the spec JSON (api/wire.SessionSpec) from the named file,
// or stdin when the argument is "-". With -watch it streams the
// session's flow records (CSV on stdout, -flows redirects to a file) and
// prints the final summary in cmd/horse's format; without it, the
// session ID prints immediately.
//
// run executes the same spec in-process, without a daemon, writing the
// identical record CSV — the reference arm for wire-vs-local parity
// checks (scripts/service-smoke.sh) and a way to dry-run a spec before
// submitting it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"horse"
	"horse/api/wire"
)

func main() {
	addr := flag.String("addr", "unix:/tmp/horsed.sock", "daemon address (unix:/path or tcp:host:port)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: horsectl [-addr ADDR] {submit|run|list|status|watch|cancel|retire} ...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	if cmd == "run" {
		// In-process execution: no daemon, no dial.
		if err := runLocal(args); err != nil {
			fatal(err)
		}
		return
	}

	c, err := wire.DialAddr(*addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	switch cmd {
	case "submit":
		err = submit(c, args)
	case "list":
		err = list(c)
	case "status":
		err = sessionCmd(args, c.Status)
	case "cancel":
		err = sessionCmd(args, c.Cancel)
	case "retire":
		err = sessionCmd(args, c.Retire)
	case "watch":
		err = watch(c, args)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
	if err != nil {
		fatal(err)
	}
}

func submit(c *wire.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	name := fs.String("name", "", "human label for the session")
	watch := fs.Bool("watch", false, "stream the session's records and wait for completion")
	flows := fs.String("flows", "", "write streamed records CSV here (default stdout; -watch only)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("submit needs exactly one spec file (or - for stdin)")
	}

	var spec wire.SessionSpec
	if err := readSpec(fs.Arg(0), &spec); err != nil {
		return err
	}
	st, stream, err := c.Submit(wire.SubmitParams{Name: *name, Spec: spec, Stream: *watch})
	if err != nil {
		return err
	}
	if !*watch {
		fmt.Println(st.Session)
		return nil
	}
	fmt.Fprintf(os.Stderr, "horsectl: session %s %s\n", st.Session, st.State)
	return drain(st.Session, stream, *flows)
}

// runLocal executes a session spec in-process through the same
// spec-to-engine bridge the daemon uses (horse.NewFromSpec), streaming
// records to the identical CSV the wire path produces. A spec that runs
// locally and a spec submitted to horsed must yield byte-identical
// record files — the determinism contract across the service boundary.
func runLocal(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	flows := fs.String("flows", "", "write record CSV here (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run needs exactly one spec file (or - for stdin)")
	}
	var spec wire.SessionSpec
	if err := readSpec(fs.Arg(0), &spec); err != nil {
		return err
	}

	out, err := openRecordCSV(*flows)
	if err != nil {
		return err
	}
	defer out.close()
	eng, until, err := horse.NewFromSpec(&spec, horse.WithRecordSink(func(fr horse.FlowRecord) {
		out.add(wire.FromRecord(fr))
	}))
	if err != nil {
		return err
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		return err
	}
	if err := out.close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "horsectl: run done at t=%.3fs\n", eng.Now().Seconds())
	fmt.Fprintf(os.Stderr, "run:      %d events\n", col.EventsRun)
	fmt.Fprintf(os.Stderr, "flows:    %d completed, %d dropped, %d looped, %d packet-ins, %d flow-mods\n",
		col.FlowsCompleted, col.FlowsDropped, col.FlowsLooped,
		col.PacketIns, col.FlowMods)
	return nil
}

func watch(c *wire.Client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	flows := fs.String("flows", "", "write received records CSV here (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("watch needs exactly one session ID")
	}
	st, stream, err := c.Watch(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "horsectl: session %s %s\n", st.Session, st.State)
	return drain(st.Session, stream, *flows)
}

// recordCSV is the record sink of run, submit -watch and watch: one CSV
// row per record, the same bytes whichever way the record arrived, behind
// a buffer so a row is not a syscall. Write errors are sticky in the
// buffer and surface from close.
type recordCSV struct {
	w *bufio.Writer
	f *os.File // nil when writing to stdout
	n int      // rows written
}

// openRecordCSV opens path (stdout if empty) and writes the header.
func openRecordCSV(path string) (*recordCSV, error) {
	c := &recordCSV{w: bufio.NewWriter(os.Stdout)}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		c.f, c.w = f, bufio.NewWriter(f)
	}
	c.w.WriteString("id,arrival_s,end_s,size_bits,sent_bits,completed,outcome,path_len,punts\n")
	return c, nil
}

func (c *recordCSV) add(r wire.Record) {
	c.n++
	fmt.Fprintf(c.w, "%d,%.9f,%.9f,%g,%g,%t,%s,%d,%d\n",
		r.ID, float64(r.ArrivalNs)/1e9, float64(r.EndNs)/1e9,
		float64(r.SizeBits), float64(r.SentBits),
		r.Completed, r.Outcome, r.PathLen, r.Punts)
}

// close flushes and closes the file, returning the first error. A second
// call (the deferred one, after the success path has checked the first)
// does nothing.
func (c *recordCSV) close() error {
	err := c.w.Flush()
	if c.f != nil {
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.f = nil
	}
	return err
}

// drain consumes a session stream: records as CSV, progress to stderr,
// then the final summary in cmd/horse's report format.
func drain(session string, stream *wire.Stream, flowsOut string) error {
	out, err := openRecordCSV(flowsOut)
	if err != nil {
		return err
	}
	defer out.close()
	done, err := stream.Drain(
		func(p wire.ProgressEvent) {
			// Rows become visible at least once per progress report; a
			// failed flush resurfaces from close.
			out.w.Flush()
			fmt.Fprintf(os.Stderr, "horsectl: t=%.3fs events=%d records=%d\n",
				float64(p.NowNs)/1e9, p.Events, out.n)
		},
		out.add)
	if err != nil {
		return err
	}
	if err := out.close(); err != nil {
		return err
	}
	printDone(session, done)
	if done.State == wire.StateFailed {
		return fmt.Errorf("session %s failed: %s", session, done.Error)
	}
	return nil
}

func printDone(session string, d wire.DoneEvent) {
	fmt.Fprintf(os.Stderr, "horsectl: session %s %s", session, d.State)
	if d.Error != "" {
		fmt.Fprintf(os.Stderr, " (%s)", d.Error)
	}
	fmt.Fprintln(os.Stderr)
	if d.Summary == nil {
		return
	}
	s := d.Summary
	fmt.Fprintf(os.Stderr, "run:      %d events\n", s.Counters.EventsRun)
	fmt.Fprintf(os.Stderr, "flows:    %d completed, %d dropped, %d looped, %d packet-ins, %d flow-mods\n",
		s.Counters.FlowsCompleted, s.Counters.FlowsDropped, s.Counters.FlowsLooped,
		s.Counters.PacketIns, s.Counters.FlowMods)
	if s.FCT != nil {
		fmt.Fprintf(os.Stderr, "fct:      n=%d mean=%.4fs p50=%.4fs p90=%.4fs p99=%.4fs max=%.4fs\n",
			s.FCT.N, s.FCT.Mean, s.FCT.P50, s.FCT.P90, s.FCT.P99, s.FCT.Max)
	}
}

func list(c *wire.Client) error {
	sessions, err := c.List()
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-12s %-9s %-8s %7s %12s %10s\n",
		"SESSION", "NAME", "STATE", "FIDELITY", "WORKERS", "T(s)", "EVENTS")
	for _, s := range sessions {
		fmt.Printf("%-8s %-12s %-9s %-8s %7d %12.3f %10d\n",
			s.Session, s.Name, s.State, s.Fidelity, s.Workers,
			float64(s.NowNs)/1e9, s.Events)
	}
	return nil
}

func sessionCmd(args []string, fn func(string) (wire.SessionStatus, error)) error {
	if len(args) != 1 {
		return fmt.Errorf("need exactly one session ID")
	}
	st, err := fn(args[0])
	if err != nil {
		return err
	}
	b, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(b))
	return nil
}

func readSpec(path string, spec *wire.SessionSpec) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return fmt.Errorf("spec %s: %w", path, err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "horsectl:", err)
	os.Exit(1)
}
