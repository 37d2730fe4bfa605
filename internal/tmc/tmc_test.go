package tmc

import (
	"sync"
	"testing"
	"time"

	"lcm/internal/latency"
)

func TestIncrementIsMonotonic(t *testing.T) {
	c := New(latency.None())
	var last uint64
	for i := 0; i < 100; i++ {
		v := c.Increment()
		if v <= last {
			t.Fatalf("counter not monotonic: %d after %d", v, last)
		}
		last = v
	}
	if c.Read() != 100 {
		t.Fatalf("Read = %d, want 100", c.Read())
	}
}

func TestIncrementChargesLatency(t *testing.T) {
	model := &latency.Model{Scale: 1, TMCIncrement: 5 * time.Millisecond}
	c := New(model)
	for i := 0; i < 4; i++ {
		c.Increment()
	}
	if got := model.Charged(); got != 20*time.Millisecond {
		t.Fatalf("4 increments charged %v, want 20ms of injected latency", got)
	}
}

func TestReadDoesNotChargeLatency(t *testing.T) {
	model := &latency.Model{Scale: 1, TMCIncrement: 50 * time.Millisecond}
	c := New(model)
	for i := 0; i < 100; i++ {
		c.Read()
	}
	if got := model.Charged(); got != 0 {
		t.Fatalf("100 reads charged %v; reads must be cheap", got)
	}
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	c := New(latency.None())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Increment()
			}
		}()
	}
	wg.Wait()
	if c.Read() != 800 {
		t.Fatalf("Read = %d after 800 concurrent increments", c.Read())
	}
	if c.Increments() != 800 {
		t.Fatalf("Increments = %d", c.Increments())
	}
}

func TestWearAccounting(t *testing.T) {
	c := New(latency.None())
	if c.WearExceeded() {
		t.Fatal("fresh counter reports wear")
	}
	c.Increment()
	if c.Increments() != 1 {
		t.Fatalf("Increments = %d", c.Increments())
	}
}
