package sem_test

import (
	"testing"

	"barbican/internal/fw"
	"barbican/internal/fw/sem"
	"barbican/internal/policy"
)

// FuzzLint feeds arbitrary text through the policy parser and, when it
// parses, through the linter. Parsing must not panic; linting must not
// panic, must order its findings by rule with in-range indices, and no
// rule it calls unreachable may decide any region witness under any
// connection state in the reference walk.
//
//	go test -run '^$' -fuzz '^FuzzLint$' -fuzztime 20s ./internal/fw/sem
func FuzzLint(f *testing.F) {
	for _, seed := range []string{
		policy.OraclePolicy,
		"allow in proto tcp from any to any port 80\ndefault deny\n",
		"deny in from 10.0.0.0/8 to any\nallow in proto tcp from 10.1.0.0/16 to any port 80\ndefault deny\n",
		"default allow\ndeny in proto tcp from any to any\n" +
			"allow in proto tcp from any to any port 80 state new\n" +
			"allow in proto tcp from any to any state established\n",
		"allow in proto tcp from any to any\nallow in proto tcp from any to any state established\ndefault deny\n",
		"allow out from any to any\nallow out vpg g from 10.0.0.0/8 to any\ndefault deny\n",
		"allow out from any to any\ndeny out proto tcp from 10.0.0.0/8 to any\ndefault deny\n",
		"default deny\nallow in proto tcp from any to 10.0.0.2/32 port 443\n" +
			"deny in proto tcp from 198.51.100.0/24 to any\nallow in proto tcp from any to 10.0.0.2/32 port 80\n",
		"nonsense\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		rs, err := policy.Parse(text)
		if err != nil || rs.Len() > 64 {
			return // rejected input, or too large to walk quickly per fuzz run
		}
		dead := map[int]bool{}
		prev := 0
		for _, fd := range sem.Lint(rs, 4) {
			if fd.Rule < prev || fd.Rule < 1 || fd.Rule > rs.Len() {
				t.Fatalf("finding %+v out of order or range (previous rule %d, %d rules)", fd, prev, rs.Len())
			}
			prev = fd.Rule
			if fd.By < 0 || fd.By >= fd.Rule {
				t.Fatalf("finding %+v names a rule that is not earlier", fd)
			}
			for k, j := range fd.Covering {
				if j < 1 || j >= fd.Rule || (k > 0 && j <= fd.Covering[k-1]) {
					t.Fatalf("finding %+v has a bad covering list", fd)
				}
			}
			switch fd.Kind {
			case sem.FindingShadowed, sem.FindingRedundant, sem.FindingUnreachable:
				dead[fd.Rule] = true
			}
		}
		if len(dead) == 0 {
			return
		}
		witnesses, ok := sem.RegionWitnesses(rs, 200_000)
		if !ok {
			return
		}
		for _, w := range witnesses {
			for cs := fw.StateNone; cs < fw.NumConnStates; cs++ {
				if v := rs.EvalState(w.Packet, w.Dir, cs); dead[v.Index] {
					t.Fatalf("rule %d reported unreachable but decides %v %v under state %v\npolicy:\n%v",
						v.Index, w.Dir, w.Packet, cs, rs)
				}
			}
		}
	})
}
