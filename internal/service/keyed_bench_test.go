package service

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"lcm/internal/wire"
)

// stringCodec encodes a value as a length-prefixed string, as kvs does.
var stringCodec = Codec[string]{
	Size:      func(v string) int { return 4 + len(v) },
	Put:       func(w *wire.Writer, v string) { w.Var([]byte(v)) },
	Get:       func(r *wire.Reader) string { return string(r.VarView()) },
	Footprint: func(key, v string) int64 { return int64(len(key) + len(v)) },
}

// The cost of each layer of a Keyed at bench/'s two state shapes,
// ycsba's 1 000 keys of 100 B and bigstate's 20 000 keys of 1 000 B: a
// point read by the writer (Get) and by a snapshot reader (ReadDurable,
// the read lock and the lookup, no pre-image pending), an overwrite
// (Set) and the checkpoint's copy of the state (Freeze). Keys are read
// and written in a fixed random order.
func BenchmarkKeyed(b *testing.B) {
	for _, shape := range []struct{ keys, size int }{{1000, 100}, {20000, 1000}} {
		k := NewKeyed(stringCodec)
		keys := make([]string, shape.keys)
		value := strings.Repeat("v", shape.size)
		for i := range keys {
			keys[i] = fmt.Sprintf("user%08d", i)
			k.Set(keys[i], value)
		}
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		run := func(name string, f func(b *testing.B, i int)) {
			b.Run(fmt.Sprintf("%s/%dx%dB", name, shape.keys, shape.size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					f(b, i)
				}
			})
		}
		run("Get", func(b *testing.B, i int) {
			if _, ok := k.Get(keys[i%len(keys)]); !ok {
				b.Fatal("key missing")
			}
		})
		run("ReadDurable", func(b *testing.B, i int) {
			if _, ok := k.ReadDurable(keys[i%len(keys)]); !ok {
				b.Fatal("key missing")
			}
		})
		run("Set", func(_ *testing.B, i int) { k.Set(keys[i%len(keys)], value) })
		run("Freeze", func(*testing.B, int) { k.Freeze() })
	}
}
