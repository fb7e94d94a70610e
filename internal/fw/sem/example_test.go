package sem_test

import (
	"fmt"

	"barbican/internal/fw"
	"barbican/internal/fw/sem"
	"barbican/internal/packet"
)

// Lint finds rules that can never fire, here a web allow behind a
// broader deny.
func ExampleLint() {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Action: fw.Deny, Direction: fw.In, Src: packet.MustPrefix("10.0.0.0/8")},
		fw.Rule{Action: fw.Allow, Direction: fw.In, Proto: packet.ProtoTCP,
			Src: packet.MustPrefix("10.1.0.0/16"), DstPorts: fw.Port(80)},
	)
	for _, f := range sem.Lint(rs, 0) {
		fmt.Println(f)
	}
	// Output: rule 2 is shadowed (covered by rule 1)
}
