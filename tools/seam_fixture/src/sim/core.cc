// Seam-lint fixture: inside sim/ the same call is allowed.
void core(Simulator& sim, Event e) { sim.subscribe(e, [] {}); }
