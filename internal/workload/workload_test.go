package workload

import (
	"reflect"
	"testing"

	"ioeval/internal/sim"
)

func TestThroughput(t *testing.T) {
	cases := []struct {
		name string
		r    Result
		want float64
	}{
		{"normal", Result{BytesRead: 50 << 20, BytesWritten: 50 << 20, IOTime: sim.Second}, float64(100 << 20)},
		{"zero io time", Result{BytesRead: 1 << 20}, 0},
		{"negative io time", Result{BytesRead: 1 << 20, IOTime: -sim.Second}, 0},
		{"zero bytes", Result{IOTime: sim.Second}, 0},
		{"read only", Result{BytesRead: 8 << 20, IOTime: 2 * sim.Second}, float64(4 << 20)},
		{"write only", Result{BytesWritten: 8 << 20, IOTime: 2 * sim.Second}, float64(4 << 20)},
		{"sub-second io", Result{BytesWritten: 1 << 20, IOTime: 250 * sim.Millisecond}, float64(4 << 20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.r.Throughput(); got != tc.want {
				t.Fatalf("throughput = %f, want %f", got, tc.want)
			}
		})
	}
}

func TestRateAggregatorRates(t *testing.T) {
	sec := sim.Second
	cases := []struct {
		name string
		fill func(ra *RateAggregator)
		want map[string]float64
	}{
		{
			// Workloads without phase structure report no rates at all:
			// the nil map keeps Result comparable against apps that never
			// touch the aggregator.
			"untouched is nil",
			func(ra *RateAggregator) {},
			nil,
		},
		{
			// Declared-but-unused keys make the aggregator non-empty but
			// are omitted from the map (no infinite rates).
			"declared only is empty non-nil",
			func(ra *RateAggregator) { ra.Declare("S_w", "W_r") },
			map[string]float64{},
		},
		{
			"single rank single key",
			func(ra *RateAggregator) { ra.Add("S_w", 0, 2*sec, 100) },
			map[string]float64{"S_w": 50},
		},
		{
			// Ranks run in parallel: the key's time is the slowest
			// rank's, the bytes are everyone's.
			"worst rank carries the key",
			func(ra *RateAggregator) {
				ra.Add("S_w", 0, sec, 100)
				ra.Add("S_w", 1, 4*sec, 100)
			},
			map[string]float64{"S_w": 50},
		},
		{
			"per-rank accumulation",
			func(ra *RateAggregator) {
				ra.Add("S_w", 0, sec, 60)
				ra.Add("S_w", 0, sec, 40) // same rank: durations add
			},
			map[string]float64{"S_w": 50},
		},
		{
			"zero-duration key omitted",
			func(ra *RateAggregator) {
				ra.Add("S_w", 0, sec, 100)
				ra.Add("C_r", 0, 0, 100) // timed at zero duration
			},
			map[string]float64{"S_w": 100},
		},
		{
			"independent keys",
			func(ra *RateAggregator) {
				ra.Add("S_w", 0, sec, 100)
				ra.Add("W_r", 1, 2*sec, 100)
			},
			map[string]float64{"S_w": 100, "W_r": 50},
		},
		{
			// Bytes can be zero with time spent (e.g. reads past EOF):
			// the key reports a zero rate, not an omission.
			"zero bytes with time",
			func(ra *RateAggregator) { ra.Add("W_r", 0, sec, 0) },
			map[string]float64{"W_r": 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ra := NewRateAggregator(2)
			tc.fill(ra)
			if got := ra.Rates(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("rates = %#v, want %#v", got, tc.want)
			}
		})
	}
}

func TestRateAggregatorEmpty(t *testing.T) {
	ra := NewRateAggregator(1)
	if !ra.Empty() {
		t.Fatal("fresh aggregator not empty")
	}
	ra.Declare("S_w")
	if ra.Empty() {
		t.Fatal("declared aggregator still empty")
	}
}
