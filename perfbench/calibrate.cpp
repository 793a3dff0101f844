// Host-speed calibration kernel. Prints the seconds a fixed amount of
// work took: hash-map inserts and lookups, random reads over 32 MB, a
// sort, and rt_sigprocmask syscalls (which every glibc swapcontext makes)
// — the same kinds of work the simulator spends its host time on. It uses
// only the standard library, so no change to the simulator can move it.
// run.py times it between reps and scales host times by its median, which
// cancels the drift of a shared machine's speed over minutes (README.md).
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

int main() {
  uint64_t x = 88172645463325252ull;
  uint64_t acc = 0;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<uint64_t> table((32u << 20) / sizeof(uint64_t), 1);

  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < 2; round++) {
    std::unordered_map<uint64_t, uint64_t> m;
    for (uint64_t i = 0; i < 200000; i++) m[rnd() % 400000] += i;
    for (int i = 0; i < 400000; i++) {
      if (auto it = m.find(rnd() % 400000); it != m.end()) acc += it->second;
      acc += table[rnd() % table.size()];
    }
    std::vector<uint64_t> v(300000);
    for (uint64_t& e : v) e = rnd();
    std::sort(v.begin(), v.end());
    acc += v[v.size() / 2];
    sigset_t none;
    sigset_t old;
    sigemptyset(&none);
    for (int i = 0; i < 100000; i++) sigprocmask(SIG_BLOCK, &none, &old);
  }
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // `acc` is printed so the work cannot be optimized away.
  std::printf("%.9f %llu\n", s, static_cast<unsigned long long>(acc & 1));
  return 0;
}
