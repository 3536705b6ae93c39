// Thread-free lint fixture: a file the lint must accept. Its own
// "rt/barrier.h" is not the standard <barrier> header, a comment may
// name thread_local or #include <thread>, and an identifier may contain
// the keyword.
#include "rt/barrier.h"
#include <vector>
int max_thread_local_bytes = 0;  // not the thread_local keyword
// #pragma omp parallel for
