package fw_test

import (
	"fmt"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

// A minimal web-server policy: first match wins, and the position of the
// matching rule is the traversal cost the embedded cards pay.
func ExampleRuleSet_Eval() {
	rs := fw.MustRuleSet(fw.Deny,
		fw.Rule{Name: "block-attacker", Action: fw.Deny, Direction: fw.In,
			Src: packet.MustPrefix("10.0.0.66/32")},
		fw.Rule{Name: "web", Action: fw.Allow, Direction: fw.In,
			Proto: packet.ProtoTCP, DstPorts: fw.Port(80)},
	)

	pkt := packet.Summary{
		Proto: packet.ProtoTCP,
		Src:   packet.MustIP("10.0.0.1"), Dst: packet.MustIP("10.0.0.2"),
		SrcPort: 4242, DstPort: 80, HasPorts: true,
	}
	v := rs.Eval(pkt, fw.In)
	fmt.Printf("%v by rule %d after traversing %d rules\n", v.Action, v.Index, v.Traversed)
	// Output: allow by rule 2 after traversing 2 rules
}
