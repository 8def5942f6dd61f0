// Table 1: hardware configurations of the three popular smart APs.
#include <cstdio>
#include <string>
#include <utility>

#include "ap/ap_models.h"
#include "util/table.h"

int main() {
  using namespace odr;
  TextTable table({"Smart AP", "CPU", "RAM", "Storage interface (and device)",
                   "WiFi protocol and channel", "price"});
  for (const auto& hw : ap::all_ap_models()) {
    std::string cpu(hw.cpu);
    cpu.append(" @").append(std::to_string(hw.cpu_mhz)).append(" MHz");
    std::string ram = std::to_string(hw.ram_mb);
    ram.append(" MB");
    std::string price("$");
    price.append(TextTable::num(hw.price_usd, 0));
    table.add_row({std::string(hw.name), std::move(cpu), std::move(ram),
                   std::string(hw.storage_interfaces), std::string(hw.wifi),
                   std::move(price)});
  }
  std::fputs(banner("Table 1: smart AP hardware configurations").c_str(),
             stdout);
  std::fputs(table.render().c_str(), stdout);

  TextTable ship({"Smart AP", "shipping storage", "filesystem",
                  "small-write ceiling (MBps)"});
  for (const auto& hw : ap::all_ap_models()) {
    const auto profile = ap::io_profile(hw.default_device, hw.default_filesystem);
    ship.add_row({std::string(hw.name),
                  std::string(ap::device_name(hw.default_device)),
                  std::string(ap::filesystem_name(hw.default_filesystem)),
                  TextTable::num(profile.max_write_rate / 1e6, 2)});
  }
  std::fputs(banner("Shipping storage configurations (§5.1)").c_str(), stdout);
  std::fputs(ship.render().c_str(), stdout);
  return 0;
}
