// The pass pipeline's showcase module, shared by bench_passes' static
// check and passes_test.
#ifndef ESD_BENCH_PASSES_SHOWCASE_H_
#define ESD_BENCH_PASSES_SHOWCASE_H_

namespace esd::bench {

// Known-rewritable module for the static check: a branch pinned by a
// constant chain, whose condition has no other user once the branch is
// elided. Both passes must fire here, every release.
inline constexpr char kPassesShowcase[] = R"(
global $g = zero 4
func @compute(%x: i32) : i32 {
entry:
  %five = add i32 2, i32 3
  %c = icmp eq %five, i32 5
  condbr %c, live, dead
live:
  %r = add %x, %five
  ret %r
dead:
  %d = mul %x, i32 99
  ret %d
}
func @main() : i32 {
entry:
  %v = call @compute(i32 1)
  store %v, $g
  ret i32 0
}
)";

}  // namespace esd::bench

#endif  // ESD_BENCH_PASSES_SHOWCASE_H_
