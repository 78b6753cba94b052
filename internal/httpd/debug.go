package httpd

// This file is the diagnostics egress for a hosted peer: the
// /debug/wspeer handler family. DebugPath (the JSON snapshot) predates
// it; the rest is the exporter surface — Prometheus text metrics, Chrome
// trace-event JSON, flight-recorder queries, liveness/readiness probes
// and (opt-in) pprof.

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"wspeer/internal/resilience"
	"wspeer/internal/telemetry"
)

// MetricsPath serves the telemetry spine in Prometheus text exposition
// format: every Meter counter, gauge and histogram plus the CallTable as
// labelled families. Point a Prometheus scrape job at it as-is.
const MetricsPath = DebugPath + "/metrics"

// TracePath serves recent spans as Chrome trace-event JSON — load the
// response straight into chrome://tracing or https://ui.perfetto.dev.
// Spans are buffered only while tracing is enabled (telemetry
// Hub.EnableTracing / the facade's EnableTracing); before that the dump
// is an empty, still-loadable trace.
const TracePath = DebugPath + "/trace"

// HealthPath serves liveness/readiness probes as JSON: 200 while the
// host is accepting work, 503 once it is draining toward shutdown or the
// admission queue is saturated. Orchestrators can use it directly as a
// readiness check.
const HealthPath = DebugPath + "/health"

// FlightPath serves the flight recorder: JSON of sampling stats plus the
// retained call records, filterable with query parameters service=, dir=,
// errors=1, trace= (16-digit hex), min_latency= (Go duration) and
// limit=N.
const FlightPath = DebugPath + "/flight"

// PprofPath is the prefix net/http/pprof is mounted under when
// Options.EnablePprof is set (the standard /debug/pprof/ so existing
// tooling's defaults work).
const PprofPath = "/debug/pprof/"

// registerDebug mounts the handler family on the host's mux. Called from
// ensureStarted with the routes the host always serves; pprof is mounted
// only when the application opted in, since profile endpoints expose
// more than operational counters do.
func (h *Host) registerDebug(mux *http.ServeMux) {
	mux.HandleFunc(DebugPath, h.handleDebug)
	mux.HandleFunc(MetricsPath, h.handleMetrics)
	mux.HandleFunc(TracePath, h.handleTrace)
	mux.HandleFunc(HealthPath, h.handleHealth)
	mux.HandleFunc(FlightPath, h.handleFlight)
	if h.opts.EnablePprof {
		mux.HandleFunc(PprofPath, pprof.Index)
		mux.HandleFunc(PprofPath+"cmdline", pprof.Cmdline)
		mux.HandleFunc(PprofPath+"profile", pprof.Profile)
		mux.HandleFunc(PprofPath+"symbol", pprof.Symbol)
		mux.HandleFunc(PprofPath+"trace", pprof.Trace)
	}
}

// handleMetrics renders the Prometheus exposition.
func (h *Host) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w) //nolint:errcheck // best-effort scrape output
}

// handleTrace renders buffered spans as Chrome trace-event JSON.
func (h *Host) handleTrace(w http.ResponseWriter, r *http.Request) {
	var spans []telemetry.SpanData
	if ring := telemetry.Default().TraceRing(); ring != nil {
		spans = ring.Spans()
	}
	w.Header().Set("Content-Type", "application/json")
	telemetry.WriteChromeTrace(w, spans) //nolint:errcheck // best-effort debug output
}

// healthStatus is the JSON document served at HealthPath.
type healthStatus struct {
	// Status is "ok", "draining" or "overloaded".
	Status string `json:"status"`
	// Live is true as long as the process answers at all; Ready is true
	// only while new work would be admitted.
	Live  bool `json:"live"`
	Ready bool `json:"ready"`
	// Services counts deployed services.
	Services int `json:"services"`
	// Admission carries the controller's live state when one is installed.
	Admission *resilience.AdmissionStats `json:"admission,omitempty"`
}

// handleHealth answers liveness/readiness probes. Draining (Close has
// begun) and admission saturation (the concurrency limit is exhausted
// and callers are queueing) both flip readiness off with a 503, which is
// exactly when a load balancer should route around this peer.
func (h *Host) handleHealth(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	draining := h.closed
	h.mu.Unlock()
	services := len(h.routes.Load().deployed)

	st := healthStatus{Status: "ok", Live: true, Ready: true, Services: services}
	if a := h.eng.Admission(); a != nil {
		stats := a.Stats()
		st.Admission = &stats
		if stats.Limit > 0 && stats.InFlight >= stats.Limit && stats.Queued > 0 {
			st.Status, st.Ready = "overloaded", false
		}
	}
	if draining {
		st.Status, st.Ready = "draining", false
	}
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st) //nolint:errcheck // best-effort debug output
}

// flightDocument is the JSON document served at FlightPath.
type flightDocument struct {
	Stats   telemetry.RecorderStats `json:"stats"`
	Records []telemetry.CallRecord  `json:"records"`
}

// handleFlight queries the flight recorder.
func (h *Host) handleFlight(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := telemetry.RecordFilter{
		Service: q.Get("service"),
		Dir:     q.Get("dir"),
	}
	switch strings.ToLower(q.Get("errors")) {
	case "1", "true", "yes":
		f.ErrorsOnly = true
	}
	if t := q.Get("trace"); t != "" {
		id, err := strconv.ParseUint(t, 16, 64)
		if err != nil {
			http.Error(w, "bad trace= parameter: want 16 hex digits", http.StatusBadRequest)
			return
		}
		f.TraceID = id
	}
	if m := q.Get("min_latency"); m != "" {
		d, err := time.ParseDuration(m)
		if err != nil {
			http.Error(w, "bad min_latency= parameter: want a Go duration like 250ms", http.StatusBadRequest)
			return
		}
		f.MinLatency = d
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			http.Error(w, "bad limit= parameter", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	flight := telemetry.Default().Flight
	doc := flightDocument{Stats: flight.Stats(), Records: flight.Query(f)}
	if doc.Records == nil {
		doc.Records = []telemetry.CallRecord{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // best-effort debug output
}
