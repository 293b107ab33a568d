"""Retargeting walkthrough: calibrate once from a neutral pose, then map
captured human link poses onto a smaller robot, frame by frame.

Run:  python3 demos/01_pose_mapping.py
"""

import numpy as np

from extremctl.mapping import LINKS, LinkSet, RobotModel, calibrate, map_frame
from extremctl.se3 import qaxis_angle

np.set_printoptions(precision=4, suppress=True)

# ===== 1. the robot, as shipped =====
robot = RobotModel(
    pelvis_height=0.75,
    pelvis_to_torso=(0.05, 0.0, 0.25),
    shoulder_offset={"left": (0.02, 0.18, 0.05), "right": (0.02, -0.18, 0.05)},
    arm_length={"left": 0.45, "right": 0.45},
    neutral_foot={"left": (0.0, 0.12, 0.03), "right": (0.0, -0.12, 0.03)},
)
print("robot pelvis height:", robot.pelvis_height, "m; arm:", robot.arm_length["right"], "m")

# ===== 2. the performer stands still for one frame =====
# A 1.0 m pelvis and 0.6 m reach: noticeably larger than the robot.
# One row per link in LINKS order: translation x, y, z, then the
# orientation quaternion w, x, y, z (identity here).
ident = [1.0, 0.0, 0.0, 0.0]
neutral = LinkSet.from_array([
    [0.0, 0.0, 1.0, *ident],    # pelvis
    [0.0, 0.0, 1.0, *ident],    # torso
    [0.6, 0.2, 1.3, *ident],    # left_hand
    [0.6, -0.2, 1.3, *ident],   # right_hand
    [0.0, 0.1, 0.02, *ident],   # left_foot
    [0.0, -0.1, 0.02, *ident],  # right_foot
])
profile = calibrate(neutral, robot)
print("\ncalibrated   scale:", profile.pelvis_height, "->", robot.pelvis_height,
      "(ratio", robot.pelvis_height / profile.pelvis_height, ")")
print("measured arm length:", profile.arm_length["right"], "m")

# ===== 3. the neutral pose must map to the robot's own neutral =====
mapped = map_frame(profile, neutral)
want = robot.neutral_links()
err = np.abs(mapped.array[:, :3] - want.array[:, :3]).max()
print("\nneutral reproduction error:", err, "m  (closed form, not fitted)")

# ===== 4. now move: reach forward and crouch a little =====
rows = neutral.array.copy()
rows[LINKS.index("right_hand")] = [0.85, -0.25, 1.15, *ident]
rows[LINKS.index("pelvis")] = [0.0, 0.0, 0.92, *qaxis_angle((0.0, 0.0, 1.0), 0.3)]
frame = LinkSet.from_array(rows)
out = map_frame(profile, frame)
hand, pelvis = LINKS.index("right_hand"), LINKS.index("pelvis")
print("\nperformer hand moved to", frame.array[hand, :3])
print("robot hand target      ", out.array[hand, :3])
print("robot pelvis target    ", out.array[pelvis, :3],
      "(0.92 m crouch scaled to", out.array[pelvis, 2], "m)")

# ===== 5. a taller performer making the same relative motion =====
# Uniform body scale calibrates away: the robot does the same thing.
def grow(links):
    rows = links.array.copy()
    rows[:, :3] *= 1.25
    return LinkSet.from_array(rows)


tall_profile = calibrate(grow(neutral), robot)
tall_out = map_frame(tall_profile, grow(frame))
gap = np.abs(tall_out.array[:, :3] - out.array[:, :3]).max()
print("\nsame motion from a 25% taller performer: target gap", gap, "m")
