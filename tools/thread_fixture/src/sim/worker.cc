// Thread-free lint fixture: a file that starts a thread.
#include <thread>
void work() { std::thread([] {}).join(); }
