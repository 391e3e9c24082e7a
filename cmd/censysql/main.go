// Command censysql builds a map of a synthetic universe and runs search
// queries against it — the interactive exploration surface of §5.3:
//
//	censysql 'services.service_name="MODBUS" and location.country="US"'
//	censysql -days 3 'labels: ics' 'services.port: [8000 TO 9000]'
//	echo 'services.tls: true' | censysql -
//
// Each matching host prints with its services, location, and derived labels.
//
// Exit codes: 0 every query ran, 1 the map could not be built or a query
// failed (the others still run), 2 usage.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"
	"time"

	"censysmap"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, reads queries from stdin when
// asked to, writes results to stdout and diagnostics to stderr, and returns
// the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("censysql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	universe := fs.String("universe", "10.0.0.0/21", "IPv4 universe prefix")
	days := fs.Int("days", 2, "simulated days of scanning before querying")
	seed := fs.Uint64("seed", 1, "universe seed")
	verbose := fs.Bool("v", false, "print full service details")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	prefix, err := netip.ParsePrefix(*universe)
	if err != nil {
		fmt.Fprintln(stderr, "bad -universe:", err)
		return 2
	}
	queries := fs.Args()
	if len(queries) == 1 && queries[0] == "-" {
		queries = nil
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			if q := strings.TrimSpace(sc.Text()); q != "" {
				queries = append(queries, q)
			}
		}
	}
	if len(queries) == 0 {
		fmt.Fprintln(stderr, "usage: censysql [flags] <query> [<query>...]")
		return 2
	}

	sys, err := censysmap.NewSystem(censysmap.Options{Universe: prefix, Seed: *seed})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "mapping %v for %d simulated days...\n", prefix, *days)
	sys.Run(time.Duration(*days) * 24 * time.Hour)
	fmt.Fprintf(stderr, "%d services mapped\n\n", len(sys.Services()))

	code := 0
	for _, q := range queries {
		hosts, err := sys.Search(q)
		if err != nil {
			fmt.Fprintf(stderr, "query %q: %v\n", q, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "> %s\n%d hosts\n", q, len(hosts))
		for _, h := range hosts {
			loc, asn := "", ""
			if h.Location != nil {
				loc = h.Location.Country
			}
			if h.AS != nil {
				asn = fmt.Sprintf("AS%d %s", h.AS.Number, h.AS.Org)
			}
			fmt.Fprintf(stdout, "  %-15s %-3s %-28s labels=%v\n", h.IP, loc, asn, h.Labels)
			if *verbose {
				for _, svc := range h.ActiveServices() {
					fmt.Fprintf(stdout, "    %-10s %-8s verified=%-5v %s\n",
						svc.Key(), svc.Protocol, svc.Verified, svc.Banner)
				}
			}
		}
		fmt.Fprintln(stdout)
	}
	return code
}
