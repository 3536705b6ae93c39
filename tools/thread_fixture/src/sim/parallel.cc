// Thread-free lint fixture: a file that threads through POSIX and
// OpenMP instead of the C++ headers.
#include <pthread.h>
void sum(int* out, const int* in, int n) {
#pragma omp parallel for
  for (int i = 0; i < n; ++i) out[i] += in[i];
}
