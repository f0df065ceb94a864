// Seeded violation for scripts/check_invariants.py rule unlisted-option:
// `unlisted_knob` has no row in the Options inventory the harness writes
// next to this file (which lists only `Widget::Options::listed_knob`).
// The nested struct's fields, the method and the brace-initialised field
// exercise what the rule must not mistake for, or must still see as,
// Options fields. Lexical analysis only — never compiled.
namespace demo {

class Widget {
 public:
  struct Options {
    /// Listed in the inventory: not flagged.
    uint64_t listed_knob = 4;
    size_t unlisted_knob{64};  // BUG (intentional): no inventory row
    struct Range {
      int lo;
      int hi;
    };
    bool valid() const { return listed_knob > 0; }
  };
};

}  // namespace demo
