package core

import (
	"prorace/internal/synthesis"
	"prorace/internal/telemetry"
)

// resolveTelemetry picks the registry an entry point runs with: the one
// named in the options, else the process-wide default (installed by the
// cmds' -metrics-addr/-timeline flags — one atomic load, nil when
// telemetry is off). A MetricsAddr additionally guarantees a live HTTP
// listener, creating and installing a default registry if the options
// carried none; a listen failure is surfaced because the caller explicitly
// asked to be scrapeable.
func resolveTelemetry(reg *telemetry.Registry, addr string) (*telemetry.Registry, error) {
	if reg == nil {
		reg = telemetry.Default()
	}
	if addr != "" {
		if reg == nil {
			reg = telemetry.EnableDefault()
		}
		if _, err := telemetry.EnsureServer(addr, reg); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// publishSynthesis folds the decode + synthesis outcome into the registry.
// The per-path counters are published only for a fresh synthesis: a path
// cache hit performed no decode work, so it increments only the hit
// counter — keeping every series an honest account of work done while
// staying deterministic for a fixed cache configuration.
func publishSynthesis(tel *telemetry.Registry, tts map[int32]*synthesis.ThreadTrace, cacheHit bool) {
	if tel == nil {
		return
	}
	if cacheHit {
		tel.Counter("prorace_synthesis_cache_hits_total", "Analyses whose decode + synthesis was served by the decoded-path cache (AnalysisResult.DecodeCacheHit).").Inc()
		return
	}
	tel.Counter("prorace_synthesis_cache_misses_total", "Analyses that ran a fresh PT decode + synthesis.").Inc()
	var packets, resyncs, gapBytes, corrupt, steps, anchors, pinned, unpinned int
	for _, tt := range tts {
		if tt.Path != nil {
			packets += tt.Path.Packets
			resyncs += tt.Path.Resyncs
			gapBytes += tt.Path.SkippedBytes()
			corrupt += tt.Path.CorruptPackets
			steps += tt.Path.Len()
		}
		anchors += tt.Anchors()
		pinned += len(tt.Samples)
		unpinned += len(tt.UnpinnedSamples)
	}
	tel.Counter("prorace_ptdecode_packets_total", "Well-formed PT packets consumed by decoding.").AddInt(packets)
	tel.Counter("prorace_ptdecode_psb_resyncs_total", "Decoder recoveries that re-anchored at a PSB sync point (Degradation.DecodeGaps companion).").AddInt(resyncs)
	tel.Counter("prorace_ptdecode_gap_bytes_total", "PT stream bytes lost to decode gaps (Degradation.PTBytesSkipped).").AddInt(gapBytes)
	tel.Counter("prorace_ptdecode_corrupt_packets_total", "Malformed packets and sync mismatches hit by decoding (Degradation.CorruptPTPackets).").AddInt(corrupt)
	tel.Counter("prorace_ptdecode_steps_total", "Instructions on decoded paths.").AddInt(steps)
	tel.Counter("prorace_synthesis_anchors_total", "TSC anchors built for timestamp estimation.").AddInt(anchors)
	tel.Counter("prorace_synthesis_samples_pinned_total", "PEBS samples pinned onto decoded paths.").AddInt(pinned)
	tel.Counter("prorace_synthesis_samples_unpinned_total", "PEBS samples usable only as bare samples (Degradation.UnpinnedSamples).").AddInt(unpinned)
}

// publishAnalysis folds one completed analysis into the registry:
// degradation/retry accounting, §5.1 regeneration, report volume, and the
// per-stage latency histograms behind the Figure 12 timings.
func publishAnalysis(tel *telemetry.Registry, res *AnalysisResult) {
	if tel == nil {
		return
	}
	deg := &res.Degradation
	tel.Counter("prorace_analysis_runs_total", "Completed offline analyses.").Inc()
	if deg.Degraded() {
		tel.Counter("prorace_analysis_degraded_runs_total", "Analyses that gave something up (Degradation.Degraded).").Inc()
	}
	if res.Regenerated {
		tel.Counter("prorace_analysis_regenerations_total", "Analyses whose §5.1 racy-address feedback re-replayed at least one thread and re-ran detection (AnalysisResult.Regenerated).").Inc()
	}
	tel.Counter("prorace_feedback_threads_replayed_total", "Threads the §5.1 feedback re-replayed because their replay loaded an emulated value from a racy address (AnalysisResult.FeedbackTIDs).").AddInt(len(res.FeedbackTIDs))
	tel.Counter("prorace_analysis_thread_errors_total", "Isolated per-thread stage failures (Degradation.ThreadErrors).").AddInt(len(deg.ThreadErrors))
	tel.Counter("prorace_analysis_dropped_threads_total", "Threads dropped after exhausting retries (Degradation.DroppedThreads).").AddInt(len(deg.DroppedThreads))
	retries := 0
	for _, te := range deg.ThreadErrors {
		retries += te.Retries
	}
	tel.Counter("prorace_analysis_thread_retries_total", "Retry attempts recorded on failing threads (ThreadError.Retries).").AddInt(retries)
	tel.Counter("prorace_analysis_invalid_tid_drops_total", "Records discarded by trace sanitisation (Degradation.InvalidTIDDrops).").AddInt(deg.InvalidTIDDrops)
	tel.Counter("prorace_analysis_sync_anomalies_total", "Sync-log invariant violations (Degradation.SyncAnomalies).").AddInt(deg.SyncAnomalies)
	tel.Counter("prorace_analysis_gap_adjacent_reports_total", "Reports flagged as touching a degraded thread (Degradation.GapAdjacentRaces).").AddInt(deg.GapAdjacentRaces)
	tel.Counter("prorace_detect_reports_total", "Deduplicated race reports emitted.").AddInt(len(res.Reports))
	tel.Counter("prorace_analysis_racy_addrs_total", "Distinct racy addresses found (AnalysisResult.RacyAddrs).").AddInt(len(res.RacyAddrs))
	tel.Histogram("prorace_analysis_decode_seconds", "Decode + synthesis stage latency per analysis.", telemetry.DurationBuckets).ObserveDuration(res.DecodeTime)
	tel.Histogram("prorace_analysis_reconstruct_seconds", "Reconstruction stage latency per analysis.", telemetry.DurationBuckets).ObserveDuration(res.ReconstructTime)
	tel.Histogram("prorace_analysis_detect_seconds", "Detection stage latency per analysis.", telemetry.DurationBuckets).ObserveDuration(res.DetectTime)
}
