package benchrun

import "time"

// AblationPoint is one row of the protocol-shape ablations (beyond the
// paper's figures; README.md's "Evaluation" section lists them).
type AblationPoint struct {
	Name       string
	X          int
	Throughput float64
	MeanLat    time.Duration

	// Latency distribution of the measurement window, where the
	// experiment records one.
	P50Lat time.Duration `json:",omitempty"`
	P99Lat time.Duration `json:",omitempty"`
}
