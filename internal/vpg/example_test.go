package vpg_test

import (
	"fmt"

	"barbican/internal/packet"
	"barbican/internal/vpg"
)

// Seal and open a group message; tampering is detected.
func ExampleGroup() {
	alice := packet.MustIP("10.0.0.1")
	bob := packet.MustIP("10.0.0.2")
	g, err := vpg.NewGroup("ops", vpg.DeriveKey("shared-secret"), alice, bob)
	if err != nil {
		fmt.Println(err)
		return
	}

	env, err := g.Seal(nil, alice, bob, packet.ProtoUDP, []byte("rotate the logs"), 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	_, plaintext, _, err := g.Open(nil, alice, bob, env)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s\n", plaintext)

	env[len(env)-1] ^= 1 // tamper
	if _, _, _, err := g.Open(nil, alice, bob, env); err != nil {
		fmt.Println("tampered envelope rejected")
	}
	// Output:
	// rotate the logs
	// tampered envelope rejected
}
