package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"censysmap/internal/engines"
)

// ---- rendering helpers ----

// renderTable formats rows in the fixed-width style of the paper's tables.
func renderTable(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(title + "\n")
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], c))
		}
		sb.WriteString("\n")
	}
	line(headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}

func pct(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}

// ---- Table 1: coverage of union of active services by port tier ----

// top10Ports are the ten most popular ports of the universe.
var top10Ports = map[uint16]bool{
	80: true, 443: true, 22: true, 7547: true, 21: true,
	25: true, 8080: true, 3389: true, 53: true, 23: true,
}

// top100Ports is the named popular-port set beyond the top ten.
var top100Ports = func() map[uint16]bool {
	out := map[uint16]bool{}
	for _, p := range []uint16{
		5060, 587, 3306, 8443, 123, 161, 8000, 5900, 2222, 6379,
		445, 1883, 8888, 2082, 110, 143, 465, 993, 995, 5901,
		502, 102, 20000, 47808, 9600, 1911, 4911, 44818, 10001, 2455, 2404,
		81, 82, 8081, 8089, 9000, 9090, 10000, 49152, 60000, 500,
	} {
		out[p] = true
	}
	return out
}()

func tierOf(port uint16) int {
	switch {
	case top10Ports[port]:
		return 0
	case top100Ports[port]:
		return 1
	default:
		return 2
	}
}

// Table1Result is the per-engine coverage by non-overlapping port tier.
type Table1Result struct {
	Engines []string
	// Coverage[tier][engine] in [0,1]; tiers: top10, top100, all-65K tail.
	Coverage [3][]float64
	// UnionSize per tier.
	UnionSize [3]int
}

var tierNames = []string{"Top 10 Ports", "Top 100 Ports", "All 65K Ports"}

// Table1 computes coverage of the union of currently active services found
// by any engine, split by port tier (paper Table 1).
func Table1(l *Lab) Table1Result {
	engs := l.Engines()
	res := Table1Result{}
	// Per-engine unique confirmed-live sets.
	live := make([]map[recKey]bool, len(engs))
	union := map[recKey]int{} // -> tier
	for i, e := range engs {
		res.Engines = append(res.Engines, e.Name())
		live[i] = map[recKey]bool{}
		for _, r := range uniqueRecords(e.Records()) {
			if !l.LiveNow(r) {
				continue
			}
			k := keyOf(r)
			live[i][k] = true
			union[k] = tierOf(r.Port)
		}
	}
	var unionByTier [3][]recKey
	for k, tier := range union {
		unionByTier[tier] = append(unionByTier[tier], k)
	}
	for tier := 0; tier < 3; tier++ {
		res.UnionSize[tier] = len(unionByTier[tier])
		for i := range engs {
			hit := 0
			for _, k := range unionByTier[tier] {
				if live[i][k] {
					hit++
				}
			}
			cov := 0.0
			if len(unionByTier[tier]) > 0 {
				cov = float64(hit) / float64(len(unionByTier[tier]))
			}
			res.Coverage[tier] = append(res.Coverage[tier], cov)
		}
	}
	return res
}

// Render formats the result like the paper's Table 1.
func (r Table1Result) Render() string {
	headers := append([]string{"Coverage"}, r.Engines...)
	var rows [][]string
	for tier, name := range tierNames {
		row := []string{fmt.Sprintf("%s (n=%d)", name, r.UnionSize[tier])}
		for _, cov := range r.Coverage[tier] {
			row = append(row, fmt.Sprintf("%.0f%%", 100*cov))
		}
		rows = append(rows, row)
	}
	return renderTable("Table 1: Coverage of Services in Engines (union of active services)", headers, rows)
}

// ---- Table 2: self-reported vs accurate coverage ----

// Table2Row is one engine's dataset quality summary.
type Table2Row struct {
	Engine       string
	SelfReported int
	PctAccurate  float64 // unique records confirmed live / unique records
	PctUnique    float64 // unique records / self-reported
	NumAccurate  int     // unique records confirmed live
}

// Table2 reproduces the coverage/accuracy comparison (paper Table 2).
func Table2(l *Lab) []Table2Row {
	var out []Table2Row
	for _, e := range l.Engines() {
		recs := e.Records()
		uniq := uniqueRecords(recs)
		liveCount := 0
		for _, r := range uniq {
			if l.LiveNow(r) {
				liveCount++
			}
		}
		row := Table2Row{Engine: e.Name(), SelfReported: len(recs), NumAccurate: liveCount}
		if len(uniq) > 0 {
			row.PctAccurate = float64(liveCount) / float64(len(uniq))
		}
		if len(recs) > 0 {
			row.PctUnique = float64(len(uniq)) / float64(len(recs))
		}
		out = append(out, row)
	}
	return out
}

// RenderTable2 formats the rows like the paper's Table 2.
func RenderTable2(rows []Table2Row) string {
	headers := []string{"", "Self-Reported", "Est. % Accurate", "Est. % Unique", "Est. # Accurate"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{r.Engine,
			fmt.Sprintf("%d", r.SelfReported),
			fmt.Sprintf("%.0f%%", 100*r.PctAccurate),
			fmt.Sprintf("%.0f%%", 100*r.PctUnique),
			fmt.Sprintf("%d", r.NumAccurate)})
	}
	return renderTable("Table 2: Coverage of Current IPv4 Services", headers, body)
}

// ---- Table 3: country and protocol coverage ----

// Table3Result holds per-category, per-engine coverage against the
// ground-truth subsample.
type Table3Result struct {
	Engines    []string
	Categories []string
	Hosts      []int       // sample size per category
	Coverage   [][]float64 // [category][engine]
}

// Table3 measures country (US/CN/DE) and protocol (HTTP/HTTPS/SSH) coverage
// against the ground-truth subsampled scan (paper Table 3).
func Table3(l *Lab) Table3Result {
	engs := l.Engines()
	res := Table3Result{Categories: []string{"US", "CN", "DE", "HTTP", "HTTPS", "SSH"}}
	for _, e := range engs {
		res.Engines = append(res.Engines, e.Name())
	}
	// Engine datasets as location sets (presence, regardless of label).
	sets := make([]map[recKey]bool, len(engs))
	for i, e := range engs {
		sets[i] = map[recKey]bool{}
		for _, r := range uniqueRecords(e.Records()) {
			sets[i][keyOf(r)] = true
		}
	}
	samples := make(map[string][]recKey)
	for _, ref := range l.GroundTruth() {
		k := recKey{ref.Addr, ref.Port, ref.Transport}
		switch ref.Country {
		case "US", "CN", "DE":
			samples[ref.Country] = append(samples[ref.Country], k)
		}
		switch ref.Protocol {
		case "HTTP":
			slot := l.Net.SlotAt(ref.Addr, ref.Port, ref.Transport)
			if slot != nil && slot.Spec.TLS {
				samples["HTTPS"] = append(samples["HTTPS"], k)
			} else {
				samples["HTTP"] = append(samples["HTTP"], k)
			}
		case "SSH":
			samples["SSH"] = append(samples["SSH"], k)
		}
	}
	for _, cat := range res.Categories {
		keys := samples[cat]
		res.Hosts = append(res.Hosts, len(keys))
		row := make([]float64, len(engs))
		for i := range engs {
			hit := 0
			for _, k := range keys {
				if sets[i][k] {
					hit++
				}
			}
			if len(keys) > 0 {
				row[i] = float64(hit) / float64(len(keys))
			}
		}
		res.Coverage = append(res.Coverage, row)
	}
	return res
}

// Render formats the result like the paper's Table 3.
func (r Table3Result) Render() string {
	headers := append([]string{"Category", "Services"}, r.Engines...)
	var rows [][]string
	for i, cat := range r.Categories {
		row := []string{cat, fmt.Sprintf("%d", r.Hosts[i])}
		for _, cov := range r.Coverage[i] {
			row = append(row, fmt.Sprintf("%.0f%%", 100*cov))
		}
		rows = append(rows, row)
	}
	return renderTable("Table 3: Country and Protocol Coverage (ground-truth subsample)", headers, rows)
}

// ---- Table 4: ICS coverage ----

// Table4Cell is one engine's (accurate, reported) pair for a protocol.
type Table4Cell struct {
	Accurate int
	Reported int
}

// Table4Result maps protocol -> engine -> cell.
type Table4Result struct {
	Engines   []string
	Protocols []string
	Cells     map[string]map[string]Table4Cell
	// TruthCount is ground truth live services per protocol.
	TruthCount map[string]int
}

// icsProtocolList is the protocols of Table 4 implemented in this build.
var icsProtocolList = []string{
	"ATG", "BACNET", "CODESYS", "DNP3", "EIP", "FINS", "FOX", "GE_SRTP", "HART",
	"IEC104", "MODBUS", "PCWORX", "PROCONOS", "REDLION", "S7", "WDBRPC",
}

// Table4 runs the ICS census: for every ICS protocol, each engine's
// self-reported count vs its validated count (paper Table 4, §6.3).
func Table4(l *Lab) Table4Result {
	res := Table4Result{
		Protocols:  icsProtocolList,
		Cells:      map[string]map[string]Table4Cell{},
		TruthCount: map[string]int{},
	}
	for _, ref := range l.GroundTruth() {
		if ref.ICS {
			res.TruthCount[ref.Protocol]++
		}
	}
	for _, e := range l.Engines() {
		res.Engines = append(res.Engines, e.Name())
		for _, proto := range icsProtocolList {
			recs := e.QueryProtocol(proto)
			uniq := uniqueRecords(recs)
			acc := 0
			for _, r := range uniq {
				if l.LiveNow(r) && l.CorrectLabel(r) {
					acc++
				}
			}
			m := res.Cells[proto]
			if m == nil {
				m = map[string]Table4Cell{}
				res.Cells[proto] = m
			}
			m[e.Name()] = Table4Cell{Accurate: acc, Reported: len(recs)}
		}
	}
	return res
}

// Render formats the result like the paper's Table 4.
func (r Table4Result) Render() string {
	headers := []string{"Protocol", "Truth"}
	for _, e := range r.Engines {
		headers = append(headers, e+" Acc.", e+" Rep.")
	}
	var rows [][]string
	for _, proto := range r.Protocols {
		row := []string{proto, fmt.Sprintf("%d", r.TruthCount[proto])}
		for _, e := range r.Engines {
			c := r.Cells[proto][e]
			row = append(row, fmt.Sprintf("%d", c.Accurate), fmt.Sprintf("%d", c.Reported))
		}
		rows = append(rows, row)
	}
	return renderTable("Table 4: ICS Coverage (validated vs self-reported)", headers, rows)
}

// ---- Figure 2: service data freshness ----

// FreshnessResult holds per-engine age quantiles of "last scanned" data.
type FreshnessResult struct {
	Engines []string
	// Quantiles of record age in hours at p10..p100 steps of 10.
	AgesHours [][]float64
}

// Figure2 measures data freshness per engine (paper Fig 2): the age of the
// "last scanned date" across each engine's records.
func Figure2(l *Lab) FreshnessResult {
	now := l.Now()
	res := FreshnessResult{}
	for _, e := range l.Engines() {
		res.Engines = append(res.Engines, e.Name())
		var ages []float64
		for _, r := range uniqueRecords(e.Records()) {
			ages = append(ages, now.Sub(r.LastScanned).Hours())
		}
		sort.Float64s(ages)
		qs := make([]float64, 10)
		for i := 1; i <= 10; i++ {
			if len(ages) == 0 {
				continue
			}
			idx := i*len(ages)/10 - 1
			if idx < 0 {
				idx = 0
			}
			qs[i-1] = ages[idx]
		}
		res.AgesHours = append(res.AgesHours, qs)
	}
	return res
}

// Render formats the freshness quantiles as the Fig 2 CDF series.
func (r FreshnessResult) Render() string {
	headers := []string{"Engine", "p10", "p20", "p30", "p40", "p50", "p60", "p70", "p80", "p90", "p100"}
	var rows [][]string
	for i, e := range r.Engines {
		row := []string{e}
		for _, a := range r.AgesHours[i] {
			row = append(row, fmt.Sprintf("%.0fh", a))
		}
		rows = append(rows, row)
	}
	return renderTable("Figure 2: Service Data Freshness (age quantiles of last-scanned)", headers, rows)
}

// ---- Figure 3: coverage overlap heatmap ----

// OverlapResult holds the pairwise coverage matrix.
type OverlapResult struct {
	Engines []string
	// Matrix[a][b] = fraction of b's confirmed-live services that a found.
	Matrix [][]float64
}

// Figure3 computes the pairwise coverage-overlap heatmap (paper Fig 3).
func Figure3(l *Lab) OverlapResult {
	engs := l.Engines()
	res := OverlapResult{}
	live := make([]map[recKey]bool, len(engs))
	for i, e := range engs {
		res.Engines = append(res.Engines, e.Name())
		live[i] = map[recKey]bool{}
		for _, r := range uniqueRecords(e.Records()) {
			if l.LiveNow(r) {
				live[i][keyOf(r)] = true
			}
		}
	}
	res.Matrix = make([][]float64, len(engs))
	for a := range engs {
		res.Matrix[a] = make([]float64, len(engs))
		for b := range engs {
			if len(live[b]) == 0 {
				continue
			}
			hit := 0
			for k := range live[b] {
				if live[a][k] {
					hit++
				}
			}
			res.Matrix[a][b] = float64(hit) / float64(len(live[b]))
		}
	}
	return res
}

// Render formats the heatmap: row a, column b = a's coverage of b.
func (r OverlapResult) Render() string {
	headers := append([]string{"covers ->"}, r.Engines...)
	var rows [][]string
	for a, name := range r.Engines {
		row := []string{name}
		for b := range r.Engines {
			row = append(row, fmt.Sprintf("%.0f%%", 100*r.Matrix[a][b]))
		}
		rows = append(rows, row)
	}
	return renderTable("Figure 3: Scan Engine Coverage Overlap (row engine's coverage of column engine)", headers, rows)
}

// ---- Figure 4: service population by port ----

// PortPopulationResult is the rank-ordered port population series.
type PortPopulationResult struct {
	// Ranked (port, count) pairs, descending by count.
	Ports  []uint16
	Counts []int
	// TotalServices and DistinctPorts summarize the tail.
	TotalServices int
	DistinctPorts int
}

// Figure4 samples the universe's port population (paper Fig 4 / Appendix B):
// the decay must be smooth, with no inflection separating "popular" from
// "unpopular" ports.
func Figure4(l *Lab) PortPopulationResult {
	counts := map[uint16]int{}
	total := 0
	for _, ref := range l.GroundTruth() {
		counts[ref.Port]++
		total++
	}
	res := PortPopulationResult{TotalServices: total, DistinctPorts: len(counts)}
	type pc struct {
		port  uint16
		count int
	}
	var all []pc
	for p, c := range counts {
		all = append(all, pc{p, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].port < all[j].port
	})
	for _, e := range all {
		res.Ports = append(res.Ports, e.port)
		res.Counts = append(res.Counts, e.count)
	}
	return res
}

// Render prints the head of the distribution plus tail summary.
func (r PortPopulationResult) Render() string {
	headers := []string{"Rank", "Port", "Services", "Share"}
	var rows [][]string
	n := len(r.Ports)
	if n > 25 {
		n = 25
	}
	for i := 0; i < n; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", r.Ports[i]),
			fmt.Sprintf("%d", r.Counts[i]),
			pct(r.Counts[i], r.TotalServices),
		})
	}
	out := renderTable("Figure 4: Service Population by Port (head of distribution)", headers, rows)
	return out + fmt.Sprintf("... %d total services across %d distinct ports\n",
		r.TotalServices, r.DistinctPorts)
}

// ---- Figure 5: sample size for freshness estimation ----

// SampleSizeResult shows convergence of the freshness estimate.
type SampleSizeResult struct {
	SampleSizes []int
	// Mean and standard deviation of the estimated %-responsive across
	// trials, per sample size.
	Mean   []float64
	StdDev []float64
	// TrueValue is the full-population responsive fraction.
	TrueValue float64
}

// Figure5 repeats the paper's Appendix C analysis: how many sampled services
// are needed to estimate an engine's responsive ("fresh") fraction. The
// paper finds ~50 suffices.
func Figure5(l *Lab, engine engines.Engine, trials int) SampleSizeResult {
	recs := uniqueRecords(engine.Records())
	liveness := make([]bool, len(recs))
	liveCount := 0
	for i, r := range recs {
		liveness[i] = l.LiveNow(r)
		if liveness[i] {
			liveCount++
		}
	}
	res := SampleSizeResult{SampleSizes: []int{5, 10, 20, 50, 100, 200}}
	if len(recs) == 0 {
		return res
	}
	res.TrueValue = float64(liveCount) / float64(len(recs))
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, n := range res.SampleSizes {
		var estimates []float64
		for t := 0; t < trials; t++ {
			live := 0
			for i := 0; i < n; i++ {
				if liveness[int(next()%uint64(len(recs)))] {
					live++
				}
			}
			estimates = append(estimates, float64(live)/float64(n))
		}
		mean := 0.0
		for _, e := range estimates {
			mean += e
		}
		mean /= float64(len(estimates))
		variance := 0.0
		for _, e := range estimates {
			variance += (e - mean) * (e - mean)
		}
		variance /= float64(len(estimates))
		res.Mean = append(res.Mean, mean)
		res.StdDev = append(res.StdDev, math.Sqrt(variance))
	}
	return res
}

// Render formats the convergence series.
func (r SampleSizeResult) Render() string {
	headers := []string{"Sample size", "Mean estimate", "Std dev", "True value"}
	var rows [][]string
	for i, n := range r.SampleSizes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", r.Mean[i]),
			fmt.Sprintf("%.3f", r.StdDev[i]),
			fmt.Sprintf("%.3f", r.TrueValue),
		})
	}
	return renderTable("Figure 5: Sampling Services to Determine Engine Freshness", headers, rows)
}
