#include "rt/copy.h"

#include <memory>
#include <utility>

#include "support/check.h"

namespace cr::rt {

sim::Event CopyEngine::issue(const CopyRequest& req,
                             sim::Event precondition) {
  CR_CHECK_MSG(!req.points.empty(),
               "empty copy issued: Engine::Impl::issue_one_copy skips and "
               "counts empty pairs before issuing");
  ++copies_;
  const FieldSpace& fs = *forest_->region(req.src_region).fields;
  const uint64_t bytes = req.points.size() * fs.virtual_bytes_of(req.fields);
  bytes_ += bytes;

  std::function<void()> on_delivery;
  std::function<void()> on_inject;
  if (instances_ != nullptr) {
    CR_CHECK(req.src_inst != kNoId && req.dst_inst != kNoId);
    InstanceManager* insts = instances_;
    // Capture by value: the request may be a temporary at the caller
    // (its points and fields are references that outlive delivery).
    // The payload is gathered from the source instance on the source
    // side at injection, and scattered into the destination at delivery.
    // Reading at inject instead of delivery is equivalent:
    // anti-dependences order any writer of the source after the copy.
    auto r = std::make_shared<CopyRequest>(req);
    auto staged = std::make_shared<PhysicalInstance::StagedPayload>();
    on_inject = [insts, r, staged] {
      *staged = insts->get(r->src_inst).gather(r->points, r->fields);
    };
    on_delivery = [insts, r, staged] {
      PhysicalInstance& dst = insts->get(r->dst_inst);
      if (r->reduction) {
        dst.scatter_fold(*staged, r->points, r->fields, r->redop);
      } else {
        dst.scatter(*staged, r->points, r->fields);
      }
      *staged = {};  // release the buffer as soon as it lands
    };
  }
  return net_->send(req.src_node, req.dst_node, bytes, precondition,
                    std::move(on_delivery), std::move(on_inject));
}

}  // namespace cr::rt
