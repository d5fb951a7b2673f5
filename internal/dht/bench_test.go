package dht

import (
	"fmt"
	"testing"
	"time"

	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// BenchmarkTableAppendClosest is the routing-table layer of the benchmark
// ladder: one K=20 selection toward a random target from a table that has
// observed a population of n random nodes, into a recycled result buffer —
// the call every FIND_NODE handler and lookup bootstrap makes. The steady
// state allocates nothing.
func BenchmarkTableAppendClosest(b *testing.B) {
	for _, pop := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("n%d", pop), func(b *testing.B) {
			rng := stats.NewRNG(11)
			epoch := time.Unix(0, 0)
			tbl := NewTable(RandomID(rng), 20, 10*time.Minute, func() time.Time { return epoch })
			for i := 0; i < pop; i++ {
				tbl.Observe(Contact{ID: RandomID(rng), Addr: transport.Addr(fmt.Sprintf("n%d", i))})
			}
			targets := make([]ID, 256)
			for i := range targets {
				targets[i] = RandomID(rng)
			}
			dst := tbl.AppendClosest(nil, targets[0], 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = tbl.AppendClosest(dst[:0], targets[i&255], 20)
			}
		})
	}
}
