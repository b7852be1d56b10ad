"""Layer-wise learned optimizer: per-component blending of normalized base
optimizer directions with learned step magnitudes, meta-trained by natural
evolution strategies over distributions of fine-tuning tasks."""
