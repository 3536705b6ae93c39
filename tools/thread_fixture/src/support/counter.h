// Thread-free lint fixture: a header with an atomic and a thread-local.
#include  <atomic>
inline std::atomic<int> hits;
inline thread_local int last_hit = 0;
