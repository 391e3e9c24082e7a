// Command censysfsck verifies (and optionally repairs) a saved store
// directory offline, using the exact decode-and-recover path the pipeline
// runs at resume:
//
//	censysfsck -dir /var/lib/censys/store
//	censysfsck -dir /var/lib/censys/store -repair
//	censysfsck -dir /var/lib/censys/store -json | jq .findings
//
// Exit codes: 0 the store is clean (or every finding was repaired), 1 faults
// remain that recovery would quarantine or work around, 2 usage or an
// unreadable store.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"censysmap/internal/cqrs"
	"censysmap/internal/durable"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("censysfsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "store directory to verify (required)")
	repair := fs.Bool("repair", false, "apply every provable fix in place")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *dir == "" {
		fmt.Fprintln(stderr, "usage: censysfsck -dir <store> [-repair] [-json]")
		return 2
	}
	rep, err := durable.Fsck(*dir, durable.FsckOptions{
		Rebuild: map[string]durable.SnapshotRebuilder{"journal": cqrs.RebuildSnapshotPayload},
		Repair:  *repair,
	})
	if err != nil {
		fmt.Fprintln(stderr, "censysfsck:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "censysfsck:", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "generation %d: %d records verified; bytes:", rep.Gen, rep.RecordsVerified)
		for _, owner := range slices.Sorted(maps.Keys(rep.Bytes)) {
			fmt.Fprintf(stdout, " %s %d", owner, rep.Bytes[owner])
		}
		fmt.Fprintln(stdout)
		for _, f := range rep.Findings {
			loc := f.File
			if f.Record >= 0 {
				loc = fmt.Sprintf("%s record %d", loc, f.Record)
			}
			if f.Offset >= 0 {
				loc = fmt.Sprintf("%s offset %d", loc, f.Offset)
			}
			fmt.Fprintf(stdout, "  %-12s %-20s %s", f.Fault, f.Action, loc)
			if f.Detail != "" {
				fmt.Fprintf(stdout, " (%s)", f.Detail)
			}
			fmt.Fprintln(stdout)
		}
		for _, store := range slices.Sorted(maps.Keys(rep.Quarantined)) {
			fmt.Fprintf(stdout, "  QUARANTINED  %s partitions %v\n", store, rep.Quarantined[store])
		}
		for _, p := range rep.Repaired {
			fmt.Fprintf(stdout, "  repaired     %s\n", p)
		}
		if rep.Clean {
			fmt.Fprintln(stdout, "clean")
		}
	}

	if rep.Clean {
		return 0
	}
	// Repaired-only stores exit 0: a second pass would come back clean.
	if *repair && len(rep.Quarantined) == 0 {
		unrepaired := false
		for _, f := range rep.Findings {
			if f.Action == durable.ActionQuarantined {
				unrepaired = true
			}
		}
		if !unrepaired {
			return 0
		}
	}
	return 1
}
