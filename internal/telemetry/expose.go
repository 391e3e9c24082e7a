package telemetry

import (
	"sort"
	"strconv"
	"strings"
)

// This file renders a Snapshot into the two exposition formats served by
// GET /v2/metrics: Prometheus text format (the default) and a JSON document
// (?format=json). Both render from the same Snapshot, so they can never
// disagree, and both are byte-stable for equal snapshots.

// formatFloat renders a metric value the way the Prometheus text format
// expects (shortest round-trippable decimal).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelString renders a label set as {k="v",...} with sorted keys, with the
// extra pairs appended last (histogram "le").
func labelString(labels map[string]string, extra ...string) string {
	if len(labels) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if len(keys) > 0 || i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extra[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// PrometheusText renders the snapshot in the Prometheus text exposition
// format (version 0.0.4).
func (s Snapshot) PrometheusText() string {
	var b strings.Builder
	for _, f := range s.Families {
		b.WriteString("# HELP ")
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(strings.ReplaceAll(f.Help, "\n", " "))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Type)
		b.WriteByte('\n')
		for _, v := range f.Values {
			if len(v.Buckets) == 0 {
				b.WriteString(f.Name)
				b.WriteString(labelString(v.Labels))
				b.WriteByte(' ')
				b.WriteString(formatFloat(v.Value))
				b.WriteByte('\n')
				continue
			}
			for _, bk := range v.Buckets {
				b.WriteString(f.Name)
				b.WriteString("_bucket")
				b.WriteString(labelString(v.Labels, "le", bk.LE))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(bk.Count, 10))
				b.WriteByte('\n')
			}
			b.WriteString(f.Name)
			b.WriteString("_sum")
			b.WriteString(labelString(v.Labels))
			b.WriteByte(' ')
			b.WriteString(formatFloat(v.Sum))
			b.WriteByte('\n')
			b.WriteString(f.Name)
			b.WriteString("_count")
			b.WriteString(labelString(v.Labels))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(v.Count, 10))
			b.WriteByte('\n')
		}
	}
	return b.String()
}
