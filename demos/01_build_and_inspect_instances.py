"""Generate a random instance, look at its travel times, and size the fleet."""

from twoecho import GenConfig, build_time_matrices, compute_u_min, generate, save_instance

cfg = GenConfig(d=20, n_truck=5, m_customers=12, drone_speed=50, seed=2024)
inst = generate(cfg)
print(f"instance {inst.name}: {inst.n} truck nodes, {inst.m} customers in a {inst.d:g} km square")
print(f"truck {inst.truck_speed:g} km/h on Manhattan roads, drones {inst.drone_speed:g} km/h "
      f"straight-line, {60 * inst.endurance:g} min endurance per round trip")

mats = build_time_matrices(inst)
print("\ntruck hours between the first four nodes:")
for row in mats.t[:4]:
    print([round(hours, 3) for hours in row[:4]])

print("\nhow many customers each node can serve:", [len(w) for w in mats.w_sets])
print("how many launch sites each customer has:", [len(v) for v in mats.v_serve])

u_min = compute_u_min(inst, mats)
print(f"\nsmallest fleet that can serve everyone (one flight per drone per stop): {u_min}")

for speed in (40, 60, 80):
    trial = inst.replaced(drone_speed=float(speed))
    print(f"  at {speed} km/h drones: u_min = "
          f"{compute_u_min(trial, build_time_matrices(trial))}")

save_instance(inst, "/tmp/demo_instance.json")
print("\nsaved to /tmp/demo_instance.json")
