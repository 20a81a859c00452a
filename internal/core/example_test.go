package core_test

import (
	"fmt"
	"time"

	"millibalance/internal/core"
	"millibalance/internal/lb"
	"millibalance/internal/sim"
)

func ExampleNewRecommended() {
	eng := sim.NewEngine(1, 2)
	balancer, err := core.NewRecommended(eng, []core.BackendSpec{
		{Name: "app1", Endpoints: 4},
		{Name: "app2", Endpoints: 4},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Dispatch two requests; the fake backends respond after 1ms.
	for i := 0; i < 2; i++ {
		balancer.Dispatch(lb.RequestInfo{},
			func(c *lb.Candidate, tk lb.Ticket) {
				fmt.Println("dispatched to", c.Name())
				eng.Schedule(time.Millisecond, tk.Done)
			},
			func() { fmt.Println("rejected") })
	}
	eng.Run(time.Second)
	// Output:
	// dispatched to app1
	// dispatched to app2
}
