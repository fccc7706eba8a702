#include "src/apps/wardens.h"

#include <utility>

#include "src/util/check.h"

namespace odapps {

OdysseyWardenBase::OdysseyWardenBase(std::string data_type, odsim::Simulator* sim,
                                     std::string procedure)
    : Warden(std::move(data_type)), sim_(sim) {
  OD_CHECK(sim != nullptr);
  odyssey_pid_ = sim_->processes().RegisterProcess("Odyssey");
  proc_ = sim_->processes().RegisterProcedure(procedure);
}

void OdysseyWardenBase::SubmitOdysseyWork(odsim::SimDuration work,
                                          odsim::EventFn on_complete) {
  if (work <= odsim::SimDuration::Zero()) {
    if (on_complete) {
      on_complete();
    }
    return;
  }
  sim_->SubmitWork(odyssey_pid_, proc_, work, std::move(on_complete));
}

VideoWarden::VideoWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("video", sim, "_sftp_DataArrived") {}

void VideoWarden::StreamChunk(size_t bytes, odsim::SimDuration warden_cpu,
                              odsim::EventFn on_done) {
  viceroy()->link()->Transfer(
      odnet::Direction::kReceive, bytes,
      [this, warden_cpu, on_done = std::move(on_done)]() mutable {
        SubmitOdysseyWork(warden_cpu, std::move(on_done));
      });
}

SpeechWarden::SpeechWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("speech", sim, "_rpc2_SendResponse") {}

MapWarden::MapWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("map", sim, "_map_FetchReply") {}

WebWarden::WebWarden(odsim::Simulator* sim)
    : OdysseyWardenBase("web", sim, "_distill_Fetch") {}

}  // namespace odapps
