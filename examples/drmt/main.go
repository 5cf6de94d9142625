// DRMT runs a small IPv4 router program through the dRMT model of §4 of the
// paper: the mini-P4 program is parsed, its table dependency DAG extracted,
// matches and actions scheduled onto four match+action processors (both
// greedily and optimally), the centralized tables populated from the
// entries configuration format, and random packets simulated.
package main

import (
	"fmt"
	"log"

	"druzhba/internal/drmt"
	"druzhba/internal/p4"
)

const routerP4 = `
header_type ipv4_t {
    fields {
        srcAddr : 32;
        dstAddr : 32;
        ttl : 8;
        tos : 8;
    }
}
header ipv4_t ipv4;

register r_count {
    width : 32;
    instance_count : 8;
}

action set_tos(v) {
    modify_field(ipv4.tos, v);
}

action decrement_ttl() {
    add_to_field(ipv4.ttl, -1);
}

action count_dst() {
    register_add(r_count, ipv4.dstAddr, 1);
}

action deny() {
    drop();
}

table classify {
    reads { ipv4.srcAddr : ternary; }
    actions { set_tos; deny; }
    default_action : set_tos(0);
}

table route {
    reads { ipv4.dstAddr : exact; }
    actions { decrement_ttl; deny; }
    default_action : decrement_ttl();
}

table audit {
    reads { ipv4.tos : exact; }
    actions { count_dst; }
    default_action : count_dst();
}

control ingress {
    apply(classify);
    apply(route);
    apply(audit);
}
`

const routerEntries = `
# block ttl-expired sources in 10.0.0.0/8, prioritize the rest of 10/8
classify ipv4.srcAddr ternary 0x0A000000/0xFF000000 set_tos(7)
route ipv4.dstAddr exact 99 deny()
audit ipv4.tos exact 7 count_dst()
`

func main() {
	prog, err := p4.Parse(routerP4)
	if err != nil {
		log.Fatal(err)
	}
	g, err := p4.BuildDAG(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("table dependency DAG:")
	fmt.Print(g.String())

	hw := drmt.HWConfig{Processors: 4, DeltaMatch: 18, DeltaAction: 2, MatchCapacity: 8, ActionCapacity: 32}
	costs := drmt.DefaultCosts(g)
	greedy, err := drmt.ListSchedule(g, costs, hw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngreedy schedule:")
	fmt.Print(drmt.FormatSchedule(greedy))

	optimal, err := drmt.OptimalSchedule(g, costs, hw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbranch-and-bound schedule:")
	fmt.Print(drmt.FormatSchedule(optimal))

	entries, err := drmt.ParseEntriesString(routerEntries, prog)
	if err != nil {
		log.Fatal(err)
	}
	m, err := drmt.NewMachine(prog, entries, hw, optimal)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := m.RunStream(1, 1000, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsimulation of 1000 random packets:")
	fmt.Print(drmt.FormatStats(stats))
	cells, _ := m.Register("r_count")
	fmt.Printf("r_count register: %v\n", cells)
}
