// Seam-lint fixture: a file outside sim/ that subscribes a callable.
void leak(Simulator& sim, Event e) { sim.subscribe(e, [] {}); }
