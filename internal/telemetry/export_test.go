package telemetry

// Latest returns the most recently published snapshot (nil before the
// first publication). Safe from any goroutine.
func (p *Publisher) Latest() *MetricsSnapshot {
	if p == nil {
		return nil
	}
	return p.snap.Load()
}

// Counter returns the sample with the given name (nil when absent).
func (s *MetricsSnapshot) Counter(name string) *CounterSample {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return &s.Counters[i]
		}
	}
	return nil
}

// Histogram returns the sample with the given name (nil when absent).
func (s *MetricsSnapshot) Histogram(name string) *HistogramSample {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return &s.Histograms[i]
		}
	}
	return nil
}
