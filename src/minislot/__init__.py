"""Multi-AP TDMA slot scheduling and TCP throughput simulator."""
