package core

import "fmt"

// recvFault attributes a failed receive of stage d, which traverses
// dimension dim: it names the expected senders whose frames have not
// landed (landed(j) reports the j-th of from). The learning run (route)
// and the compiled replay both report a failed receive through it.
func recvFault(me, d, dim int, from []int, landed func(j int) bool, err error) error {
	var out []int
	for j, f := range from {
		if !landed(j) {
			out = append(out, f)
		}
	}
	return fmt.Errorf("core: rank %d stage %d (dimension %d) recv, outstanding senders %v: %w", me, d, dim, out, err)
}
