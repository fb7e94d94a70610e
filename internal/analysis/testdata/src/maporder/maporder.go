// Package maporder is the fixture for the iteration-order check.
package maporder

import (
	"fmt"
	"sort"
	"strings"
)

func escapesUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `map iteration order escapes into "out"`
	}
	return out
}

func sortedAfterLoop(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedViaSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func sortedByLocalHelper(m map[float64]bool) []float64 {
	var xs []float64
	for x := range m {
		xs = append(xs, x)
	}
	sortFloats(xs)
	return xs
}

func sortFloats(xs []float64) {
	sort.Float64s(xs)
}

func sortedInOuterBlock(m map[string]int, cond bool) []string {
	var out []string
	if cond {
		for k := range m {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func writesInsideLoop(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k) // want `call to method WriteString inside a map range writes output`
	}
}

func printsInsideLoop(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt-style call Println inside a map range writes output`
	}
}

func allowedAggregate(m map[string]int) int {
	max := 0
	var keys []string
	for k, v := range m {
		if v > max {
			max = v
		}
		keys = append(keys, k) //barbican:allow maporder -- fixture escape hatch
	}
	_ = keys
	return max
}

func loopLocalIsFine(m map[string]int) int {
	total := 0
	for k := range m {
		var parts []string
		parts = append(parts, k)
		total += len(parts)
	}
	return total
}

func mapToMapIsFine(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func rangeOverSliceIsFine(s []string, b *strings.Builder) {
	for _, v := range s {
		b.WriteString(v)
	}
}

// Kernel and Host stand in for sim.Kernel and stack.Host, the types
// the test names as schedulers: a call handed one may schedule
// simulator events.
type Kernel struct{ events []func() }

func (k *Kernel) After(fn func()) { k.events = append(k.events, fn) }

func (k *Kernel) Run() error { return nil }

type Host struct{ ip string }

func (h *Host) IP() string { return h.ip }

type Agent struct{ host *Host }

func NewAgent(h *Host, server string) (*Agent, error) { return &Agent{host: h}, nil }

type Server struct{ pushed []string }

func (s *Server) Push(name, ip string) error {
	s.pushed = append(s.pushed, name+"@"+ip)
	return nil
}

// fleetDemoEscapes has the shape of a fleet demo that ranged over a
// map: every agent and push is created in iteration order, so push
// order and audit times changed from run to run.
func fleetDemoEscapes(k *Kernel, srv *Server, fleet map[string]*Host) error {
	for name, h := range fleet {
		if _, err := NewAgent(h, "10.0.0.1"); err != nil { // want `call NewAgent inside a map range is handed a \*fixture/maporder\.Host`
			return err
		}
		if err := srv.Push(name, h.IP()); err != nil { // want `call h\.IP inside a map range is handed a \*fixture/maporder\.Host`
			return err
		}
	}
	return k.Run()
}

func kernelReceiverEscapes(k *Kernel, timers map[string]func()) {
	for _, fn := range timers {
		k.After(fn) // want `call k\.After inside a map range is handed a \*fixture/maporder\.Kernel`
	}
}

// fleetDemoFixedOrder is the repair: a slice fixes the order.
func fleetDemoFixedOrder(k *Kernel, srv *Server, fleet []*Host, names []string) error {
	for i, h := range fleet {
		if _, err := NewAgent(h, "10.0.0.1"); err != nil {
			return err
		}
		if err := srv.Push(names[i], h.IP()); err != nil {
			return err
		}
	}
	return k.Run()
}

// schedulerFreeCallsAreFine makes calls no scheduler is handed to.
func schedulerFreeCallsAreFine(ips map[string]string) int {
	n := 0
	for name, ip := range ips {
		n += len(strings.ToUpper(name)) + len(ip)
	}
	return n
}

func allowedSchedulerCall(k *Kernel, timers map[string]func()) {
	for _, fn := range timers {
		k.After(fn) //barbican:allow maporder -- fixture escape hatch
	}
}
