// Borrowed-buffer escape pass (DESIGN.md §10/§11): the PR-4 reusable
// buffer idioms hand out std::span / std::string_view into pooled scratch
// (EncodeInto/DecodeInto out-params, the columnar cursor decode, resolver
// send scratch). A borrowed view is only valid for the duration of the
// call that produced it; this pass flags the three ways one escapes:
//
//   borrow-member  a span/view stored into a data member (trailing-`_`
//                  name), where it outlives the callee's frame,
//   borrow-return  a span/view constructed over a function-local (or
//                  by-value parameter) owning buffer and returned,
//   lambda-borrow  a lambda that captures scratch by reference (or a
//                  view by value) and escapes the call — returned,
//                  assigned to a member, or stored in a std::function.
//
// Scoped to the modules that traffic in pooled scratch or borrowed zone
// image spans: src/capture, src/net, src/resolver, src/zone, src/server.
// Lifetime-correct exceptions carry a reasoned `lint:allow(<rule>)`.
#pragma once

#include "report.h"
#include "source.h"

namespace lint {

void RunEscapePass(SourceFile& file, Reporter& reporter);

}  // namespace lint
