package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the Prometheus text exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus writes the registry snapshot in Prometheus text
// exposition format (version 0.0.4): counters as `counter`, gauges as
// `gauge`, and the log-scale histograms as `histogram` with cumulative
// `le` buckets, a `+Inf` bucket equal to `_count`, and the exact `_sum`. Metric names are sanitized to the
// Prometheus charset ([a-zA-Z0-9_:], leading digit prefixed); the
// original dotted name is preserved in the HELP line, escaped per the
// format's rules. Families are emitted in sorted sanitized-name order,
// so scrapes of an unchanged registry are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePromSnapshot(w, r.Snapshot())
}

func writePromSnapshot(w io.Writer, s Snapshot) error {
	var b strings.Builder
	for _, name := range sortedPromKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# HELP %s aved counter %s\n", pn, promEscapeHelp(name))
		fmt.Fprintf(&b, "# TYPE %s counter\n", pn)
		fmt.Fprintf(&b, "%s %d\n", pn, s.Counters[name])
	}
	for _, name := range sortedPromKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# HELP %s aved gauge %s\n", pn, promEscapeHelp(name))
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(&b, "%s %s\n", pn, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedPromKeys(s.Histograms) {
		pn := promName(name)
		hs := s.Histograms[name]
		fmt.Fprintf(&b, "# HELP %s aved histogram %s\n", pn, promEscapeHelp(name))
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		// The snapshot stores per-bucket counts for non-empty buckets
		// only; exposition wants cumulative counts over every listed
		// bound plus the +Inf catch-all.
		var cum int64
		for _, bk := range hs.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, promFloat(bk.Le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, hs.Count)
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promFloat(hs.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, hs.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedPromKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// promName maps a registry name onto the Prometheus metric-name charset:
// every byte outside [a-zA-Z0-9_:] becomes '_', and a leading digit is
// prefixed so the result matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// promEscapeHelp escapes a HELP payload: backslash and newline, per the
// text-format rules.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promFloat renders a float the way Prometheus parsers expect: shortest
// round-trip decimal, with IEEE specials spelled +Inf/-Inf/NaN.
func promFloat(v float64) string {
	switch {
	case v != v:
		return "NaN"
	case v > 1.7976931348623157e308:
		return "+Inf"
	case v < -1.7976931348623157e308:
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// wantsPrometheus reports whether an HTTP metrics request negotiated
// the Prometheus text format instead of the JSON default: an explicit
// ?format=prom (or prometheus/text) wins, otherwise an Accept header
// naming text/plain (what prometheus scrapers send) without asking for
// JSON first.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	jsonAt := strings.Index(accept, "application/json")
	plainAt := strings.Index(accept, "text/plain")
	if plainAt < 0 {
		return false
	}
	return jsonAt < 0 || plainAt < jsonAt
}

// WriteMetricsHTTP serves a registry snapshot over HTTP in the
// negotiated format: indented JSON by default, Prometheus text
// exposition under ?format=prom or an Accept header preferring
// text/plain. Both the debug mux and avedserver's /metrics route
// through it, so the two endpoints negotiate identically.
func WriteMetricsHTTP(w http.ResponseWriter, r *http.Request, reg *Registry) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", PromContentType)
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := reg.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
